//! The one snapshot → propose → commit → reschedule pipeline, and the one
//! task lifecycle.
//!
//! Both drivers — [`crate::EventTestbed`] for monolithic tasks and
//! [`crate::DagEventTestbed`] for stage DAGs — hold a [`Pipeline`]: the
//! database, the commit plane, the scheduling policy, the bookkeeping of
//! the commit protocol and the running set. A task's lifecycle is written
//! here once:
//!
//! * **in** — [`Pipeline::place`] at arrival, then [`Pipeline::admit`]:
//!   the one admission path from snapshot to start. A monolithic task is
//!   admitted as a gang of one, a DAG frontier as a gang of its stages:
//!   one snapshot, one proposal per task, one all-or-nothing commit, then
//!   each task started — its schedule installed, its [`RunClock`] started,
//!   the Figure-3 accumulators and, in a traced run, its report recorded;
//! * **reconsidered** — [`Pipeline::reconsider`] under the reschedule
//!   policy, reached through [`Pipeline::reschedule_pass`] from the
//!   periodic check ([`Pipeline::due_for_check`]) and the fault pass
//!   ([`Pipeline::link_transition`]), which retires what the policy sheds;
//! * **out** — [`Pipeline::retire`]: release the schedule, free the
//!   containers and prune every database record of the task.
//!
//! What a driver keeps for itself is where work comes from, when it asks
//! to admit (behind the admission gate, or when a frontier's data drains)
//! and what a departure or a shed means to it.

use crate::database::Database;
use crate::managers::AiTaskManager;
use crate::plane::{CommitPlane, PlaneConfig};
use crate::scenario::RunSummary;
use crate::{Intent, OrchError, Result, Validation};
use flexsched_compute::server::ResourceRequest;
use flexsched_compute::{ClusterManager, ServerSpec};
use flexsched_optical::{OpticalSnapshot, OpticalState};
use flexsched_sched::evaluate::{evaluate_schedule_in, EvalScratch};
use flexsched_sched::reschedule::{self, ConsiderWorkspace, RescheduleVerdict};
use flexsched_sched::{
    FixedSpff, NetworkSnapshot, Proposal, ReschedulePolicy, SchedError, Schedule, Scheduler,
    SelectionStrategy,
};
use flexsched_simcore::{ComponentId, Event, Simulation};
use flexsched_simnet::fault::FaultSchedule;
use flexsched_simnet::{NetworkState, SimTime, Transport};
use flexsched_task::{AiTask, ServiceClass, TaskId, TaskReport};
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::{LinkId, NodeId, Topology};
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

/// Debug builds check the state invariant every `INVARIANT_STRIDE` events and
/// after the last: checking every event tripled the debug test suite's time.
pub(crate) const INVARIANT_STRIDE: u64 = 4;

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
    pub(crate) fn new(
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
struct BandwidthProbe {
    peak: f64,
    integral: f64,
    /// Time of the latest sample — the run's simulated duration.
    last_sample: SimTime,
}

impl BandwidthProbe {
    pub(crate) fn sample(&mut self, current: f64, now: SimTime) {
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

/// When a running task's iterations finish — the only definition of
/// "iterations left" either driver prices a migration with, and what the
/// monolithic driver's periodic check reads to tell that a task has
/// finished an iteration since it last looked.
///
/// The clock keeps the iteration length of the report the task's
/// [`Event::TaskDeparture`] was scheduled from, on purpose: a migration
/// does not re-time the departure (a migrated task still finishes on its
/// admission-time schedule, as a migrated DAG stage does), and the clock
/// must agree with the event that ends the task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunClock {
    started: SimTime,
    iteration_ns: u64,
    iterations: u32,
}

impl RunClock {
    /// The clock of a schedule installed at `started` whose departure is
    /// timed by `report`.
    pub(crate) fn new(started: SimTime, report: &TaskReport) -> Self {
        RunClock {
            started,
            iteration_ns: report.iteration_ns(),
            iterations: report.iterations,
        }
    }

    /// Iterations finished by `now`. The last one ends at the departure,
    /// so a running task has finished at most `iterations − 1`.
    pub(crate) fn completed(&self, now: SimTime) -> u32 {
        let elapsed = now.saturating_sub(self.started).as_ns();
        let last = u64::from(self.iterations.saturating_sub(1));
        // An iteration of zero length is over as soon as it starts.
        elapsed
            .checked_div(self.iteration_ns)
            .unwrap_or(last)
            .min(last) as u32
    }

    /// Iterations left at `now`, the one in progress included: at least 1
    /// for a task of at least one iteration, never more than `iterations`.
    pub(crate) fn remaining(&self, now: SimTime) -> u32 {
        self.iterations - self.completed(now)
    }
}

/// One running task, from [`Pipeline::admit`] to [`Pipeline::retire`].
pub(crate) struct Running {
    pub task: AiTask,
    pub clock: RunClock,
    groomed: Vec<u64>,
    /// Iterations the task had finished when the periodic check last
    /// considered it — written by [`Pipeline::due_for_check`] only, so a
    /// fault or heal pass never postpones the next periodic look.
    considered_at: u32,
    /// Migrations the committer rejected since the task's last committed
    /// one: the reschedule retry budget `consider` sheds the task past.
    rejected_migrations: u32,
    /// Index into the retained reports (`None` in an untraced run).
    report: Option<usize>,
}

/// What one [`Pipeline::admit`] attempt did. Nothing is committed unless
/// every task started.
#[derive(Debug)]
pub(crate) enum Admitted {
    /// Every task started: their run lengths, in the order given.
    Started(Vec<SimTime>),
    /// A task had no feasible proposal against the snapshot.
    Infeasible,
    /// The committer rejected the proposals: a schedule no longer fits.
    Rejected,
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
    /// no feasible candidate, or the committer rejected the migration).
    Kept,
}

/// The state and steps of the commit protocol and the task lifecycle
/// shared by the drivers.
pub(crate) struct Pipeline {
    pub db: Database,
    pub plane: CommitPlane,
    scheduler: Box<dyn Scheduler>,
    /// The cheap decision path degraded-mode verdicts route to.
    degraded_scheduler: FixedSpff,
    /// Warm Dijkstra/Steiner scratch reused across scheduling decisions.
    scratch: ScratchPool,
    /// Warm evaluator buffers behind [`start`](Pipeline::start).
    eval: EvalScratch,
    /// The admit path's frozen views, refilled in place per attempt
    /// ([`select_and_snapshot`](Pipeline::select_and_snapshot) lends them
    /// out, [`reclaim`](Pipeline::reclaim) takes the IP-layer one back).
    snap_net: Option<NetworkState>,
    snap_optical: Option<Arc<OpticalSnapshot>>,
    /// Warm buffers of the reschedule check (its one network-state copy,
    /// optical freeze and evaluator buffers); empty (no allocation) until
    /// the first reconsideration.
    consider_ws: ConsiderWorkspace,
    selection: SelectionStrategy,
    transport: Transport,
    reschedule: Option<ReschedulePolicy>,
    running: BTreeMap<TaskId, Running>,
    /// One report per started task, in start order; `Some` only when the
    /// driver keeps them ([`keep_reports`](Pipeline::keep_reports)).
    reports: Option<Vec<TaskReport>>,
    /// Figure-3 accumulators, filled at start so an untraced run needs no
    /// reports to aggregate.
    started: u64,
    iter_ms_sum: f64,
    task_bw_sum: f64,
    reschedules: u32,
    repairs: u32,
    /// Decisions routed through the degraded scheduler: admissions and
    /// reconsiderations alike.
    degraded_decisions: u32,
    /// `net.version()` and the reserved total summed at it.
    reserved: Option<(u64, f64)>,
    probe: BandwidthProbe,
    /// Calls of the debug invariant hook so far, for its stride.
    handled: u64,
}

impl Pipeline {
    pub(crate) fn new(
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
            scheduler,
            degraded_scheduler: FixedSpff,
            scratch: ScratchPool::new(),
            eval: EvalScratch::default(),
            snap_net: None,
            snap_optical: None,
            consider_ws: ConsiderWorkspace::default(),
            selection,
            transport,
            reschedule,
            running: BTreeMap::new(),
            reports: None,
            started: 0,
            iter_ms_sum: 0.0,
            task_bw_sum: 0.0,
            reschedules: 0,
            repairs: 0,
            degraded_decisions: 0,
            reserved: None,
            probe: BandwidthProbe::default(),
            handled: 0,
        }
    }

    /// Keep one [`TaskReport`] per started task for the summary.
    pub(crate) fn keep_reports(&mut self) {
        self.reports = Some(Vec::new());
    }

    /// Sample the bandwidth reserved at `at` into the run's probe; the
    /// drivers call it once per handled event. The fabric is re-summed only
    /// when the network's version has moved since the last sample (every
    /// mutation bumps it), so an unchanged network reads the same total,
    /// bit for bit.
    pub(crate) fn sample_reserved(&mut self, at: SimTime) {
        let cached = self.reserved;
        let now = self.db.read(|net, _, _| match cached {
            Some((version, total)) if version == net.version() => (version, total),
            _ => (net.version(), net.total_reserved_gbps()),
        });
        self.reserved = Some(now);
        self.probe.sample(now.1, at);
    }

    /// Place a task's containers through the task manager, into the
    /// database's cluster as in Figure 2. Every placed task leaves through
    /// [`retire`](Pipeline::retire).
    pub(crate) fn place(&self, task: &AiTask) -> Result<()> {
        AiTaskManager.admit_with(&self.db, task, GLOBAL_REQ, LOCAL_REQ)
    }

    /// Snapshot stage: every task's site selection and the frozen world
    /// view come from one read lock, so they are mutually consistent. The
    /// views are this pipeline's buffers, refilled in place; the optical
    /// one is left as it is while the database's optical state — one
    /// object for the pipeline's lifetime — still carries the version it
    /// was frozen at. Hand the snapshot back through
    /// [`reclaim`](Pipeline::reclaim) once the proposals are made.
    fn select_and_snapshot(&mut self, tasks: &[&AiTask]) -> (Vec<Vec<NodeId>>, NetworkSnapshot) {
        let (snap_net, snap_optical) = (&mut self.snap_net, &mut self.snap_optical);
        self.db.read(|net, opt, _| {
            let frozen = match snap_net.take() {
                Some(mut buf) => {
                    buf.copy_from(net);
                    buf
                }
                None => net.clone(),
            };
            match snap_optical.as_mut().and_then(Arc::get_mut) {
                Some(view) if view.version() == opt.version() => {}
                Some(view) => view.recapture(opt),
                None => *snap_optical = Some(Arc::new(opt.snapshot())),
            }
            (
                tasks
                    .iter()
                    .map(|t| self.selection.select(t, net))
                    .collect(),
                NetworkSnapshot::from_parts(frozen, snap_optical.clone()),
            )
        })
    }

    /// Take back a snapshot [`select_and_snapshot`](Pipeline::select_and_snapshot)
    /// lent out, so the next attempt refills its arrays instead of
    /// allocating them.
    fn reclaim(&mut self, snap: NetworkSnapshot) {
        self.snap_net = Some(snap.into_parts().0);
    }

    /// Propose stage: a pure decision against the snapshot, reusing the
    /// warm scratch pool. `degrade` routes it through the cheap fixed-tree
    /// scheduler. `None` = nothing feasible this attempt.
    fn propose(
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

    /// The premise fit-only validation rests on, checked in debug builds
    /// on every admission: proposals about to be committed were
    /// computed from the state they are committed to — nothing moved either
    /// layer between [`select_and_snapshot`](Pipeline::select_and_snapshot)
    /// and the commit, so the committer needs no stamp check to know a
    /// fresh decision would be the same one.
    fn debug_check_current(&self, proposals: &[&Proposal]) {
        if !cfg!(debug_assertions) {
            return;
        }
        let live = self
            .db
            .read(|net, opt, _| (net.version(), Some(opt.version())));
        for p in proposals {
            assert_eq!(
                (p.snapshot_version, p.optical_version),
                live,
                "{}: state moved between snapshot and commit",
                p.task()
            );
        }
    }

    /// The state invariant (README "One invariant"): the committer's
    /// clauses over the database, then `running` — the running set equals
    /// the stored schedules.
    pub(crate) fn check_invariants(&self) -> std::result::Result<(), (&'static str, String)> {
        self.plane.committer.check_invariants(&self.db)?;
        let broken = self.db.read_schedules(|_, _, _, s| {
            let orphan = self.running.keys().find(|id| !s.contains_key(id));
            let stray = s.keys().find(|id| !self.running.contains_key(id));
            match (orphan, stray) {
                (Some(id), _) => Some(format!("{id} is running without a schedule")),
                (None, Some(id)) => Some(format!("{id} has a schedule but is not running")),
                (None, None) => None,
            }
        });
        broken.map_or(Ok(()), |detail| Err(("running", detail)))
    }

    /// The drivers' hook after every handled event: in debug builds, every
    /// [`INVARIANT_STRIDE`]-th call panics naming a broken clause and `event`.
    pub(crate) fn debug_check_after(&mut self, event: Event, at: SimTime) {
        self.handled += 1;
        if cfg!(debug_assertions) && self.handled.is_multiple_of(INVARIANT_STRIDE) {
            if let Err((clause, detail)) = self.check_invariants() {
                panic!("invariant `{clause}` broken after {event:?} at {at}: {detail}");
            }
        }
    }

    /// The one admission path, for a single task and a DAG frontier alike:
    /// one snapshot for all of `tasks`, one proposal each (stopping at the
    /// first with nothing feasible), one all-or-nothing commit, then each
    /// task [started](Pipeline::start) from `now`. `degrade` routes the
    /// decisions through the cheap fixed-tree scheduler. A blocked attempt
    /// changes no state.
    pub(crate) fn admit(
        &mut self,
        tasks: &[&AiTask],
        now: SimTime,
        degrade: bool,
    ) -> Result<Admitted> {
        if degrade {
            self.degraded_decisions += 1;
        }
        let (selected, snap) = self.select_and_snapshot(tasks);
        let proposals: Result<Option<Vec<Proposal>>> = (tasks.iter().zip(&selected))
            .map(|(task, selected)| self.propose(task, selected, &snap, degrade))
            .collect();
        self.reclaim(snap);
        let Some(proposals) = proposals? else {
            return Ok(Admitted::Infeasible);
        };
        // Commit stage: schedules validated against live state, stored
        // (their bandwidth reserved) and wavelengths groomed
        // atomically. A typed conflict means the proposals do not fit —
        // blocked like any other attempt.
        let gang: Vec<&Proposal> = proposals.iter().collect();
        self.debug_check_current(&gang);
        let receipts = match self.plane.apply_gang(&self.db, &gang, Validation::Fit) {
            Ok(r) => r,
            Err(OrchError::GangRejected(_)) => return Ok(Admitted::Rejected),
            Err(e) => return Err(e),
        };
        (tasks.iter().zip(proposals).zip(receipts))
            .map(|((&task, p), r)| self.start(task.clone(), &p.schedule, r.groomed, now))
            .collect::<Result<_>>()
            .map(Admitted::Started)
    }

    /// The one way in, for a schedule that just committed (and so is
    /// stored and reserved): measure it against live state, mark the task
    /// running from `now` and record it. Returns the run length, the
    /// report's total, that the task's departure is timed by.
    fn start(
        &mut self,
        task: AiTask,
        schedule: &Schedule,
        groomed: Vec<u64>,
        now: SimTime,
    ) -> Result<SimTime> {
        let eval = &mut self.eval;
        let report = self.db.read(|net, _, cluster| {
            evaluate_schedule_in(eval, &task, schedule, net, cluster, &self.transport)
        })?;
        let clock = RunClock::new(now, &report);
        let run = SimTime::from_ns(report.total_ns());
        self.started += 1;
        self.iter_ms_sum += report.iteration_ms();
        self.task_bw_sum += report.bandwidth_gbps;
        let report = self.reports.as_mut().map(|reports| {
            reports.push(report);
            reports.len() - 1
        });
        let running = Running {
            task,
            clock,
            groomed,
            considered_at: 0,
            rejected_migrations: 0,
            report,
        };
        self.running.insert(running.task.id, running);
        Ok(run)
    }

    /// The one way out, for every exit — departure, give-up, shed: prune
    /// the task's database records (taking its schedule releases its
    /// bandwidth), free a running task's groomed wavelengths and the
    /// containers placed for it, so nothing outlives the task. Returns the
    /// task when it was running.
    pub(crate) fn retire(&mut self, id: TaskId) -> Result<Option<AiTask>> {
        let running = self.running.remove(&id);
        self.db.forget_task(id);
        if let Some(r) = &running {
            self.plane.release(&self.db, id, &r.groomed)?;
        }
        AiTaskManager.complete(&self.db, id)?;
        Ok(running.map(|r| r.task))
    }

    /// The running tasks, by id.
    pub(crate) fn running(&self) -> &BTreeMap<TaskId, Running> {
        &self.running
    }

    /// The running tasks a periodic check at `now` reconsiders — the one
    /// place that decides whether the timer wakes a task. A task is due
    /// when it has finished an iteration since the check last considered
    /// it: an iteration boundary is the one moment a migration takes
    /// effect without throwing away a transfer in flight, and the one
    /// moment the iteration count the trade-off multiplies by changes. A
    /// task whose stored schedule crosses a dead link serves nothing, so
    /// it is due at every check until it is repaired, migrated or healed.
    pub(crate) fn due_for_check(&mut self, now: SimTime) -> Vec<TaskId> {
        let db = &self.db;
        self.running
            .iter_mut()
            .filter_map(|(&id, r)| {
                let completed = r.clock.completed(now);
                let due = completed > r.considered_at || db.schedule_crosses_dead_link(id);
                r.considered_at = completed;
                due.then_some(id)
            })
            .collect()
    }

    /// `link` went down or came back: flip it, and return the running
    /// tasks the fault pass reconsiders — none with rescheduling off. A cut
    /// narrows them to the schedules crossing it (the database's link →
    /// tasks reverse index, so a fault scales with its blast radius); a
    /// healed link is an opportunity for any task, so a heal returns every
    /// running task.
    pub(crate) fn link_transition(&mut self, link: LinkId, down: bool) -> Result<Vec<TaskId>> {
        self.plane.set_link_down(&self.db, link, down)?;
        Ok(match self.reschedule {
            None => Vec::new(),
            Some(_) if down => self.db.tasks_on_link(link),
            Some(_) => self.running.keys().copied().collect(),
        })
    }

    /// Reconsider each running task of `ids`, priced over the iterations
    /// it has left at `now`, and retire those the policy sheds (their
    /// retry budget is exhausted) instead of reconsidering them forever.
    /// `degraded` routes the non-Critical reconsiderations through the
    /// degraded scheduler. Returns the retired tasks.
    pub(crate) fn reschedule_pass(
        &mut self,
        ids: &[TaskId],
        now: SimTime,
        degraded: bool,
    ) -> Result<Vec<TaskId>> {
        let mut shed = Vec::new();
        for &id in ids {
            let Some(r) = self.running.get(&id) else {
                continue;
            };
            let degrade = degraded && r.task.class != ServiceClass::Critical;
            if self.reconsider(id, r.clock.remaining(now), degrade) == Reconsidered::Shed {
                self.retire(id)?;
                shed.push(id);
            }
        }
        Ok(shed)
    }

    /// Reconsider one running task's schedule under the reschedule policy,
    /// priced over `remaining` iterations. `degrade` routes the
    /// reconsideration through the cheap fixed-tree scheduler; the policy
    /// is the same either way.
    pub(crate) fn reconsider(&mut self, id: TaskId, remaining: u32, degrade: bool) -> Reconsidered {
        if degrade {
            self.degraded_decisions += 1;
        }
        let (Some(policy), Some(running)) = (&self.reschedule, self.running.get_mut(&id)) else {
            return Reconsidered::Kept;
        };
        let repairs_so_far = self.db.repair_count(id);
        let scheduler: &dyn Scheduler = if degrade {
            &self.degraded_scheduler
        } else {
            &*self.scheduler
        };
        let drift_forced = policy
            .resolve_after_repairs
            .is_some_and(|n| repairs_so_far >= n);
        let (ws, scratch) = (&mut self.consider_ws, &mut self.scratch);
        // The stored schedule is read in place; only a migration's commit
        // needs a copy of it, for the intent that credits its reservations
        // back.
        let considered = self.db.read_schedules(|net, opt, cluster, schedules| {
            let schedule = schedules.get(&id)?;
            let verdict = reschedule::consider_in(
                ws,
                policy,
                scheduler,
                &running.task,
                schedule,
                remaining,
                repairs_so_far,
                running.rejected_migrations,
                net,
                Some(opt),
                cluster,
                &self.transport,
                scratch,
            );
            let migrating = matches!(verdict, Ok(RescheduleVerdict::Migrate { .. }));
            Some((verdict, migrating.then(|| schedule.clone())))
        });
        let Some((verdict, old)) = considered else {
            return Reconsidered::Kept;
        };
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
        match (verdict, old) {
            (
                Ok(RescheduleVerdict::Migrate {
                    new_proposal,
                    repair_delta,
                    ..
                }),
                Some(schedule),
            ) => {
                // Migration is a commit like any other: the new schedule
                // validated (with the old reservations credited) and the
                // stored schedule swapped atomically.
                let intent = match &repair_delta {
                    Some(delta) => Intent::repair(&schedule, &new_proposal, delta),
                    None => Intent::migrate(&schedule, &new_proposal),
                };
                if self.plane.apply(&self.db, intent).is_err() {
                    // A conflict keeps the task on its current schedule and
                    // counts against its reschedule retry budget (when the
                    // policy sets one); `consider` sheds it once exhausted.
                    running.rejected_migrations += 1;
                    return Reconsidered::Kept;
                }
                running.rejected_migrations = 0;
                self.reschedules += 1;
                if let (Some(i), Some(reports)) = (running.report, self.reports.as_mut()) {
                    reports[i].reschedules += 1;
                }
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
            (Ok(RescheduleVerdict::Shed { .. }), _) => Reconsidered::Shed,
            // Keep, or the candidate is infeasible right now: keep running.
            _ => Reconsidered::Kept,
        }
    }

    /// The part of a [`RunSummary`] every driver reports the same way,
    /// with the reports kept so far; per-driver counters start at zero /
    /// `None`.
    pub(crate) fn summary(&mut self, events: u64) -> RunSummary {
        // Every successful run ends here, after its last event.
        debug_assert_eq!(self.check_invariants(), Ok(()), "after the last event");
        let mean_iteration_ms = if self.started > 0 {
            self.iter_ms_sum / self.started as f64
        } else {
            0.0
        };
        let (groom_reuse_hits, groom_new_lights) = self.plane.groom_stats();
        RunSummary {
            scheduler: self.scheduler.name().to_string(),
            reports: self.reports.take().unwrap_or_default(),
            blocked: 0,
            retries: 0,
            reschedules: self.reschedules,
            repairs: self.repairs,
            peak_reserved_gbps: self.probe.peak,
            mean_reserved_gbps: self.probe.mean(),
            sum_task_bandwidth_gbps: self.task_bw_sum,
            mean_iteration_ms,
            groom_reuse_hits,
            groom_new_lights,
            groom_work: self.plane.committer.groom_work(),
            search_work: self.scratch.work(),
            duration: self.probe.last_sample,
            events,
            shed: 0,
            degraded_decisions: self.degraded_decisions,
            admission: None,
            sojourn: None,
            dag: None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use flexsched_compute::ModelProfile;
    use flexsched_sched::{FlexibleMst, RepairProposal, RetryPolicy};
    use flexsched_simnet::DirLink;
    use flexsched_topo::builders::{metro, MetroParams};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts every call into the policy it wraps, and the
    /// `propose_repair` calls among them on their own.
    pub(crate) struct Counting {
        inner: FlexibleMst,
        calls: Arc<AtomicUsize>,
        repairs: Arc<AtomicUsize>,
    }

    impl Counting {
        /// The wrapped paper policy with its (all calls, `propose_repair`
        /// calls) counters.
        pub(crate) fn paper() -> (Self, Arc<AtomicUsize>, Arc<AtomicUsize>) {
            let (calls, repairs) = (Arc::default(), Arc::default());
            let counting = Counting {
                inner: FlexibleMst::paper(),
                calls: Arc::clone(&calls),
                repairs: Arc::clone(&repairs),
            };
            (counting, calls, repairs)
        }
    }

    impl Scheduler for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn propose(
            &self,
            task: &AiTask,
            selected: &[NodeId],
            snapshot: &NetworkSnapshot,
            scratch: &mut ScratchPool,
        ) -> flexsched_sched::Result<Proposal> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.propose(task, selected, snapshot, scratch)
        }
        fn propose_repair(
            &self,
            task: &AiTask,
            current: &Schedule,
            snapshot: &NetworkSnapshot,
            scratch: &mut ScratchPool,
        ) -> flexsched_sched::Result<Option<RepairProposal>> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.repairs.fetch_add(1, Ordering::Relaxed);
            self.inner.propose_repair(task, current, snapshot, scratch)
        }
    }

    const REMAINING: u32 = 4;

    /// One task placed and started at t = 0 on an idle metro, under
    /// `policy`; the counter sees every scheduler call from here on.
    fn rig(policy: ReschedulePolicy) -> (Pipeline, AiTask, Arc<AtomicUsize>) {
        let world = World::new(
            metro(&MetroParams::default()),
            0,
            SimTime::ZERO,
            SimTime::ZERO,
            0,
        );
        let servers = world.topo.servers();
        let task = AiTask {
            id: TaskId(7),
            model: ModelProfile::mobilenet(),
            global_site: servers[0],
            local_sites: servers[1..=6].to_vec(),
            data_utility: Default::default(),
            iterations: 10,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        let (counting, calls, _) = Counting::paper();
        let mut pipe = Pipeline::new(
            world.db,
            world.plane,
            Box::new(counting),
            SelectionStrategy::All,
            Transport::tcp(),
            Some(policy),
        );
        pipe.place(&task).unwrap();
        let admitted = pipe.admit(&[&task], SimTime::ZERO, false).unwrap();
        assert!(
            matches!(admitted, Admitted::Started(_)),
            "idle metro admits the task"
        );
        calls.store(0, Ordering::Relaxed);
        (pipe, task, calls)
    }

    /// The directed WDM-ring spans `schedule` reserves on.
    pub(crate) fn ring_spans(pipe: &Pipeline, schedule: &Schedule) -> Vec<DirLink> {
        let topo = pipe.db.read(|net, _, _| net.topo_arc());
        let on_ring = |n| topo.node(n).unwrap().kind == flexsched_topo::NodeKind::Roadm;
        let spans: Vec<DirLink> = schedule
            .reservations(&topo)
            .unwrap()
            .into_iter()
            .map(|(dl, _)| dl)
            .filter(|dl| {
                let link = topo.link(dl.link).unwrap();
                on_ring(link.a) && on_ring(link.b)
            })
            .collect();
        assert!(!spans.is_empty(), "metro schedules cross the WDM ring");
        spans
    }

    /// Fill what is left of `spans` with background traffic.
    pub(crate) fn saturate(pipe: &Pipeline, spans: &[DirLink]) {
        pipe.db
            .write(|net, _, _| {
                spans.iter().try_for_each(|&dl| {
                    let residual = net.residual_gbps(dl)?;
                    net.add_background(dl, residual)
                })
            })
            .unwrap();
    }

    /// The drivers' admit sites rely on snapshot → propose → commit running
    /// with nothing in between; a write that slips in must trip the check
    /// (the committer itself would still accept the proposal: it fits).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "state moved between snapshot and commit")]
    fn a_write_between_snapshot_and_commit_trips_the_debug_check() {
        let (mut pipe, task, _) = rig(ReschedulePolicy::default());
        let next = AiTask {
            id: TaskId(8),
            ..task.clone()
        };
        let (selected, snap) = pipe.select_and_snapshot(&[&next]);
        let proposal = pipe
            .propose(&next, &selected[0], &snap, false)
            .unwrap()
            .expect("one task leaves room for a second");
        pipe.reclaim(snap);
        // A link outside the task's footprint.
        let links = pipe.db.read(|net, _, _| net.topo().link_count());
        let other = (0..links as u32)
            .map(LinkId)
            .find(|l| !pipe.db.tasks_on_link(*l).contains(&task.id))
            .expect("one task does not cover the metro");
        let dl = DirLink::new(other, flexsched_topo::Direction::AtoB);
        pipe.db.write(|net, _, _| net.reserve(dl, 1.0)).unwrap();
        pipe.debug_check_current(&[&proposal]);
    }

    /// One half of `running`: a stored schedule whose task the pipeline
    /// does not hold as running.
    #[test]
    fn a_schedule_stored_for_a_task_not_running_breaks_the_running_clause() {
        let (mut pipe, task, _) = rig(ReschedulePolicy::default());
        assert_eq!(pipe.check_invariants(), Ok(()));
        pipe.running.remove(&task.id);
        let (clause, detail) = pipe.check_invariants().unwrap_err();
        assert_eq!(clause, "running");
        assert!(detail.contains("not running"), "{detail}");
    }

    /// The other half of `running`: a task held as running with no stored
    /// schedule.
    #[test]
    fn a_running_task_without_a_schedule_breaks_the_running_clause() {
        let (mut pipe, task, _) = rig(ReschedulePolicy::default());
        let clock = pipe.running[&task.id].clock;
        let ghost = AiTask {
            id: TaskId(8),
            ..task
        };
        let running = Running {
            task: ghost,
            clock,
            groomed: Vec::new(),
            considered_at: 0,
            rejected_migrations: 0,
            report: None,
        };
        pipe.running.insert(TaskId(8), running);
        let (clause, detail) = pipe.check_invariants().unwrap_err();
        assert_eq!(clause, "running");
        assert!(detail.contains("running without a schedule"), "{detail}");
    }

    #[test]
    fn run_clock_counts_down_to_one_and_never_below() {
        let clock = RunClock {
            started: SimTime::from_ms(5),
            iteration_ns: 10_000_000,
            iterations: 4,
        };
        let at = |ms| clock.remaining(SimTime::from_ms(ms));
        // Before the start and inside the first iteration nothing is done.
        assert_eq!((at(0), at(5), at(14)), (4, 4, 4));
        assert_eq!((at(15), at(25), at(34)), (3, 2, 2));
        // The last iteration ends at the departure: while the task runs
        // (and however late it is asked) one iteration is always left.
        assert_eq!((at(35), at(45), at(1_000_000)), (1, 1, 1));
        assert_eq!(clock.completed(SimTime::from_ms(1_000_000)), 3);
        // Degenerate reports: no iteration length, no iterations.
        let instant = RunClock {
            iteration_ns: 0,
            ..clock
        };
        assert_eq!(instant.remaining(SimTime::from_ms(5)), 1);
        let empty = RunClock {
            iterations: 0,
            ..clock
        };
        assert_eq!(empty.remaining(SimTime::from_ms(50)), 0);
    }

    /// ROADMAP hole (i): the trade-off multiplies the per-iteration saving
    /// by the iterations *left*. The same network change is worth a
    /// migration to a task that has all ten iterations before it and not
    /// to one on its last.
    #[test]
    fn late_migrations_are_priced_at_what_is_left() {
        // Load-driven savings on the metro are a fraction of a millisecond
        // an iteration, so price the interruption at half a millisecond.
        let (mut pipe, task, _) = rig(ReschedulePolicy {
            interruption_ns: 500_000,
            threshold: 1.0,
            ..ReschedulePolicy::default()
        });
        let clock = pipe.running()[&task.id].clock;
        let last_iteration = SimTime::from_ns(clock.iteration_ns * u64::from(task.iterations - 1));
        assert_eq!(clock.remaining(SimTime::ZERO), task.iterations);
        assert_eq!(clock.remaining(last_iteration), 1);

        let schedule = pipe.db.schedule(task.id).unwrap();
        saturate(&pipe, &ring_spans(&pipe, &schedule));
        assert_eq!(
            pipe.reconsider(task.id, clock.remaining(last_iteration), false),
            Reconsidered::Kept,
            "one iteration of saving does not pay for the interruption"
        );
        assert_eq!(pipe.reschedules, 0);
        assert_eq!(
            pipe.reconsider(task.id, clock.remaining(SimTime::ZERO), false),
            Reconsidered::Migrated,
            "ten iterations of the same saving do"
        );
        assert_eq!((pipe.reschedules, pipe.repairs), (1, 0));
    }

    /// Degraded mode re-solves through the built-in FixedSpff alone: the
    /// configured scheduler is not asked anything, and the decision counts
    /// as degraded.
    #[test]
    fn a_degraded_reconsideration_calls_only_fixed_spff() {
        let (mut pipe, task, calls) = rig(ReschedulePolicy::default());
        assert_eq!(
            pipe.reconsider(task.id, REMAINING, true),
            Reconsidered::Kept
        );
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(pipe.degraded_decisions, 1);
        assert_eq!(
            pipe.reconsider(task.id, REMAINING, false),
            Reconsidered::Kept
        );
        assert!(calls.load(Ordering::Relaxed) > 0, "a full check re-solves");
    }

    /// A task considered and kept leaves nothing behind when it retires:
    /// its schedule, its retry tally (a field of its running record) and
    /// its ledger entries go together.
    #[test]
    fn release_forgets_the_remembered_verdict() {
        let (mut pipe, task, _) = rig(ReschedulePolicy::default());
        assert_eq!(
            pipe.reconsider(task.id, REMAINING, false),
            Reconsidered::Kept
        );
        assert_eq!(pipe.retire(task.id).unwrap(), Some(task));
        assert!(pipe.running().is_empty());
        assert_eq!(pipe.check_invariants(), Ok(()));
        assert_eq!(pipe.db.ledger_leftovers(), Vec::<String>::new());
    }

    /// A task kept on earlier checks is shed once its retry budget is
    /// spent, and stays shed.
    #[test]
    fn an_exhausted_retry_budget_sheds_past_a_remembered_keep() {
        let retry = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let (mut pipe, task, _) = rig(ReschedulePolicy {
            retry: Some(retry),
            ..ReschedulePolicy::default()
        });
        assert_eq!(
            pipe.reconsider(task.id, REMAINING, false),
            Reconsidered::Kept
        );
        assert_eq!(
            pipe.reconsider(task.id, REMAINING, false),
            Reconsidered::Kept
        );
        pipe.running.get_mut(&task.id).unwrap().rejected_migrations = retry.max_attempts;
        assert_eq!(
            pipe.reconsider(task.id, REMAINING, false),
            Reconsidered::Shed
        );
        // ...and it stays shed however often the driver asks.
        assert_eq!(
            pipe.reconsider(task.id, REMAINING, false),
            Reconsidered::Shed
        );
    }

    /// Containers coming and going on the task's own sites do not move a
    /// reschedule verdict: they change `training_ns` of the current and the
    /// candidate schedule alike, and the saving is their difference.
    #[test]
    fn cluster_state_does_not_move_the_verdict() {
        let (pipe, task, _) = rig(ReschedulePolicy::default());
        let schedule = pipe.db.schedule(task.id).unwrap();
        // Saturate one of the task's ring spans around its own reservation:
        // a fresh solve routes differently (a non-zero saving), but not by
        // enough to justify migrating.
        saturate(&pipe, &ring_spans(&pipe, &schedule)[..1]);
        let saving = |pipe: &Pipeline| {
            let verdict = pipe.db.read(|net, opt, cluster| {
                reschedule::consider(
                    &ReschedulePolicy::default(),
                    &FlexibleMst::paper(),
                    &task,
                    &schedule,
                    REMAINING,
                    0,
                    0,
                    net,
                    Some(opt),
                    cluster,
                    &Transport::tcp(),
                    &mut ScratchPool::new(),
                )
            });
            match verdict.unwrap() {
                RescheduleVerdict::Keep { rejected_saving_ns } => rejected_saving_ns,
                other => panic!("expected Keep, got {other:?}"),
            }
        };
        let idle = saving(&pipe);
        assert_ne!(idle, 0, "the loaded link must make the candidate differ");
        let replicas = (task.local_sites.iter())
            .flat_map(|site| [(*site, LOCAL_REQ); 3])
            .collect();
        pipe.db
            .write(|_, _, cluster| cluster.place_task(99, replicas))
            .unwrap();
        assert_eq!(saving(&pipe), idle, "colocated containers moved the saving");
        pipe.db
            .write(|_, _, cluster| cluster.free_task(99))
            .unwrap();
        assert_eq!(saving(&pipe), idle);
    }
}
