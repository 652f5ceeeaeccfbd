//! DAG-job scenario drivers: gang-admitted stage frontiers end to end.
//!
//! An [`AiJob`](flexsched_task::AiJob) is a typed stage DAG — compute,
//! all-reduce and pipeline-transfer stages joined by data-item edges with
//! Gbit demands. This module drives jobs through the same snapshot →
//! propose → commit pipeline the monolithic testbeds use, with three
//! DAG-specific behaviours:
//!
//! * **Gang admission.** A completed stage releases its successors once
//!   their data items drain; the released batch is admitted as one gang —
//!   one [`Proposal`] (and hence one `Footprint`) per stage, committed
//!   all-or-nothing through [`CommitPlane::apply_gang`]. One member's
//!   conflict ([`crate::commit::GangConflict`]) leaves the database
//!   bit-identical and the whole frontier retries after a backoff.
//! * **Stage-granular rescheduling.** A link fault re-solves only the
//!   stages whose trees cross the cut ([`RepairScope::Stage`], the
//!   default, using the database's link → tasks reverse index).
//!   [`RepairScope::Job`] widens each hit to every active stage of the
//!   affected jobs — the whole-job re-solve baseline the differential
//!   test compares against.
//! * **Critical-path accounting.** Each stage's admission-time report is
//!   its ideal duration (committed schedules never cross down links, so
//!   no outage penalty is folded in); per-job makespan and
//!   makespan / ideal-critical-path inflation land in
//!   [`LatencyHistogram`]s and surface as [`DagStats`] on the
//!   [`RunSummary`].
//!
//! Two drivers share one `DagCore` state machine: [`DagTestbed`] on the
//! fixed-tick [`EventQueue`], and [`DagEventTestbed`] on the
//! [`flexsched_simcore::Simulation`] engine, where gang attempts are
//! `TaskArrival { index: job }` events and stage completions are
//! `TaskDeparture { task: stage-task-id }` events. On a fault-free
//! scenario the two are pinned bit-identical.

use crate::database::{Database, TaskPhase};
use crate::managers::AiTaskManager;
use crate::plane::{CommitPlane, PlaneConfig};
use crate::testbed::RunSummary;
use crate::{OrchError, Result};
use flexsched_compute::server::ResourceRequest;
use flexsched_compute::{ClusterManager, ServerSpec};
use flexsched_optical::OpticalState;
use flexsched_sched::{
    evaluate_schedule, reschedule, JobTracker, NetworkSnapshot, Proposal, ReschedulePolicy,
    Scheduler, SelectionStrategy,
};
use flexsched_simcore::{Component, Event, LatencyHistogram, SimContext, Simulation};
use flexsched_simnet::fault::FaultSchedule;
use flexsched_simnet::{EventQueue, NetworkState, SimTime, Transport};
use flexsched_task::{AiTask, JobStream, TaskId, TaskReport, WorkloadConfig};
use flexsched_topo::builders::{backbone, fat_tree, metro, BackboneParams, MetroParams};
use flexsched_topo::Topology;
use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// Container sizing for the per-stage model replicas (same as the
/// monolithic testbeds).
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

/// Which physical topology the DAG scenario runs over (the bench sweeps
/// all three).
#[derive(Debug, Clone)]
pub enum DagTopology {
    /// The paper's metro topology.
    Metro(MetroParams),
    /// A k-ary fat-tree data-centre fabric.
    FatTree {
        /// Pod arity (even, ≥ 2).
        k: usize,
        /// Per-link capacity, Gbit/s.
        link_gbps: f64,
    },
    /// The continental backbone scenario.
    Backbone(BackboneParams),
}

impl Default for DagTopology {
    fn default() -> Self {
        DagTopology::Metro(MetroParams::default())
    }
}

impl DagTopology {
    fn build(&self) -> Topology {
        match self {
            DagTopology::Metro(p) => metro(p),
            DagTopology::FatTree { k, link_gbps } => fat_tree(*k, *link_gbps),
            DagTopology::Backbone(p) => backbone(p),
        }
    }
}

/// Granularity of the fault-time reschedule pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairScope {
    /// Re-solve only the stages whose trees cross the faulted links
    /// (the link → tasks reverse index).
    #[default]
    Stage,
    /// Re-solve every active stage of any job with at least one stage on
    /// the faulted links — the whole-job baseline.
    Job,
}

/// DAG scenario configuration.
#[derive(Debug, Clone)]
pub struct DagTestbedConfig {
    /// Physical topology.
    pub topology: DagTopology,
    /// Per-stage task parameter streams (model, sites, class, arrivals).
    pub workload: WorkloadConfig,
    /// DAG shape stream (stage counts, edges, transfer sizes).
    pub dag: flexsched_task::DagConfig,
    /// Number of random link outages injected (0 = none).
    pub fault_count: usize,
    /// Fault schedule seed.
    pub fault_seed: u64,
    /// Window the outages are spread over (`None` = the full horizon).
    /// Jobs arrive within milliseconds and finish in minutes, so sweeps
    /// concentrate the storm inside that activity window — spread over a
    /// long horizon most outages would land on an idle network.
    pub fault_window: Option<SimTime>,
    /// Mean outage repair time.
    pub mean_repair: SimTime,
    /// Transport protocol for model-weight transfers.
    pub transport: Transport,
    /// Local-model selection strategy.
    pub selection: SelectionStrategy,
    /// Rescheduling policy for fault reaction; `None` disables it.
    pub reschedule: Option<ReschedulePolicy>,
    /// Fault-pass granularity (stage vs whole job).
    pub repair_scope: RepairScope,
    /// Backoff before retrying a rejected gang.
    pub retry_backoff: SimTime,
    /// Gang attempts before the job is shed.
    pub max_retries: u32,
    /// Hard stop for the scenario clock.
    pub horizon: SimTime,
}

impl Default for DagTestbedConfig {
    fn default() -> Self {
        DagTestbedConfig {
            topology: DagTopology::default(),
            workload: WorkloadConfig::default(),
            dag: flexsched_task::DagConfig::default(),
            fault_count: 0,
            fault_seed: 7,
            fault_window: None,
            mean_repair: SimTime::from_ms(20),
            transport: Transport::tcp(),
            selection: SelectionStrategy::All,
            reschedule: None,
            repair_scope: RepairScope::default(),
            retry_backoff: SimTime::from_ms(10),
            max_retries: 500,
            horizon: SimTime::from_secs(60),
        }
    }
}

/// DAG-level outcome folded into [`RunSummary::dag`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DagStats {
    /// Jobs that arrived within the horizon.
    pub jobs: u64,
    /// Jobs whose every stage completed.
    pub jobs_completed: u64,
    /// Jobs abandoned (gang retry budget or reschedule shed).
    pub jobs_shed: u64,
    /// Stages committed (gang members installed).
    pub stages_committed: u64,
    /// Successful all-or-nothing gang commits.
    pub gang_commits: u64,
    /// Gang attempts rejected by a member's conflict (zero mutation).
    pub gang_rejections: u64,
    /// Reschedule considerations run by fault passes — the
    /// stage-vs-job-granularity differential metric.
    pub repair_decisions: u64,
    /// Mean per-job makespan (arrival → last stage completion), ns.
    pub makespan_mean_ns: f64,
    /// Median per-job makespan, ns.
    pub makespan_p50_ns: u64,
    /// 99th-percentile per-job makespan, ns.
    pub makespan_p99_ns: u64,
    /// Worst per-job makespan, ns (exact).
    pub makespan_max_ns: u64,
    /// Mean critical-path inflation ×1000 (1000 = makespan equals the
    /// ideal critical path).
    pub inflation_mean_milli: f64,
    /// Median critical-path inflation ×1000.
    pub inflation_p50_milli: u64,
    /// 99th-percentile critical-path inflation ×1000.
    pub inflation_p99_milli: u64,
    /// Worst critical-path inflation ×1000 (exact).
    pub inflation_max_milli: u64,
}

struct ActiveStage {
    task: AiTask,
    job: usize,
    sid: u32,
    groomed: Vec<u64>,
    remaining_iterations: u32,
}

/// A gang attempt's outcome, driver-agnostic.
enum GangOutcome {
    /// Members committed; each entry is (stage task id, duration ns) for
    /// the driver to schedule completions.
    Started(Vec<(TaskId, u64)>),
    /// Nothing admitted this attempt (no feasible tree, or a gang
    /// conflict); the frontier retries.
    Blocked,
    /// No released stage is due — nothing to do.
    Empty,
}

/// Driver-independent DAG state machine: trackers, gang admission, stage
/// completion, fault reaction and the final summary.
struct DagCore {
    cfg: DagTestbedConfig,
    db: Database,
    plane: CommitPlane,
    mgr: AiTaskManager,
    scheduler: Box<dyn Scheduler>,
    scratch: flexsched_topo::algo::ScratchPool,
    trackers: Vec<JobTracker>,
    /// Stage task id → (job index, stage id).
    stage_index: BTreeMap<u64, (usize, u32)>,
    /// Per-job released-but-unadmitted stages with their release times.
    pending: Vec<BTreeMap<u32, u64>>,
    active: BTreeMap<TaskId, ActiveStage>,
    reports: Vec<TaskReport>,
    migrate_failures: BTreeMap<TaskId, u32>,
    stages_committed: u64,
    gang_commits: u64,
    gang_rejections: u64,
    repair_decisions: u64,
    jobs_completed: u64,
    jobs_shed: u64,
    retries: u32,
    reschedules: u32,
    repairs: u32,
    makespan: LatencyHistogram,
    inflation: LatencyHistogram,
    peak_reserved: f64,
    reserved_integral: f64,
    last_sample: SimTime,
}

impl DagCore {
    fn new(cfg: DagTestbedConfig, scheduler: Box<dyn Scheduler>) -> Result<(Self, FaultSchedule)> {
        let topo = Arc::new(cfg.topology.build());
        let network = NetworkState::new(Arc::clone(&topo));
        let optical = OpticalState::new(Arc::clone(&topo));
        let cluster = ClusterManager::from_topology(&topo, ServerSpec::default());
        let db = Database::new(network, optical, cluster);
        let plane = CommitPlane::new(PlaneConfig::Single, &topo);
        let jobs: Vec<flexsched_task::AiJob> =
            JobStream::new(&topo, &cfg.workload, cfg.dag.clone()).collect();
        let faults = if cfg.fault_count > 0 {
            FaultSchedule::random(
                &topo,
                cfg.fault_count,
                cfg.fault_window.unwrap_or(cfg.horizon),
                cfg.mean_repair,
                cfg.fault_seed,
            )
        } else {
            FaultSchedule::new()
        };
        let mut mgr = AiTaskManager::new();
        let mut stage_index = BTreeMap::new();
        let mut pending = Vec::with_capacity(jobs.len());
        let mut trackers = Vec::with_capacity(jobs.len());
        for (j, job) in jobs.into_iter().enumerate() {
            for stage in &job.stages {
                mgr.admit_with(&db, &stage.task, GLOBAL_REQ, LOCAL_REQ)?;
                stage_index.insert(stage.task.id.0, (j, stage.id));
            }
            let tracker = JobTracker::new(job);
            // Roots release at the job's arrival; the driver's first gang
            // try for the job fires then.
            pending.push(
                tracker
                    .ready()
                    .into_iter()
                    .map(|s| (s, tracker.release_time(s).expect("roots are released")))
                    .collect(),
            );
            trackers.push(tracker);
        }
        Ok((
            DagCore {
                cfg,
                db,
                plane,
                mgr,
                scheduler,
                scratch: flexsched_topo::algo::ScratchPool::new(),
                trackers,
                stage_index,
                pending,
                active: BTreeMap::new(),
                reports: Vec::new(),
                migrate_failures: BTreeMap::new(),
                stages_committed: 0,
                gang_commits: 0,
                gang_rejections: 0,
                repair_decisions: 0,
                jobs_completed: 0,
                jobs_shed: 0,
                retries: 0,
                reschedules: 0,
                repairs: 0,
                makespan: LatencyHistogram::new(),
                inflation: LatencyHistogram::new(),
                peak_reserved: 0.0,
                reserved_integral: 0.0,
                last_sample: SimTime::ZERO,
            },
            faults,
        ))
    }

    fn sample_bandwidth(&mut self, now: SimTime) {
        let current = self.plane.total_reserved_gbps(&self.db);
        let dt = now.saturating_sub(self.last_sample).as_ns() as f64;
        self.reserved_integral += current * dt;
        self.peak_reserved = self.peak_reserved.max(current);
        self.last_sample = now;
    }

    /// Attempt to gang-admit job `j`'s due frontier (released stages whose
    /// data has drained by `now`): one proposal per stage, one
    /// all-or-nothing commit.
    fn try_gang(&mut self, j: usize, now: SimTime) -> Result<GangOutcome> {
        if self.trackers[j].is_shed() {
            return Ok(GangOutcome::Empty);
        }
        let due: Vec<u32> = self.pending[j]
            .iter()
            .filter(|(_, &at)| at <= now.as_ns())
            .map(|(&s, _)| s)
            .collect();
        if due.is_empty() {
            return Ok(GangOutcome::Empty);
        }
        let tasks: Vec<AiTask> = due
            .iter()
            .map(|&s| {
                self.trackers[j]
                    .job()
                    .stage(s)
                    .expect("pending stage exists")
                    .task
                    .clone()
            })
            .collect();
        // One read lock for the whole gang: every member's site selection
        // and the frozen snapshot are mutually consistent.
        let (selections, snap) = self.plane.read_state(&self.db, |net, opt, _| {
            (
                tasks
                    .iter()
                    .map(|t| self.cfg.selection.select(t, net))
                    .collect::<Vec<_>>(),
                NetworkSnapshot::capture(net).with_optical(opt),
            )
        });
        let mut proposals: Vec<Proposal> = Vec::with_capacity(tasks.len());
        for (task, selected) in tasks.iter().zip(&selections) {
            if selected.is_empty() {
                return Ok(GangOutcome::Blocked);
            }
            match self
                .scheduler
                .propose(task, selected, &snap, &mut self.scratch)
            {
                Ok(p) => proposals.push(p),
                Err(flexsched_sched::SchedError::Blocked { .. })
                | Err(flexsched_sched::SchedError::Unreachable { .. }) => {
                    return Ok(GangOutcome::Blocked)
                }
                Err(e) => return Err(e.into()),
            }
        }
        let refs: Vec<&Proposal> = proposals.iter().collect();
        let receipts = match self
            .plane
            .apply_gang(&self.db, &refs, crate::commit::Validation::Fit)
        {
            Ok(r) => r,
            Err(OrchError::GangRejected(_)) => {
                self.gang_rejections += 1;
                return Ok(GangOutcome::Blocked);
            }
            Err(e) => return Err(e),
        };
        self.gang_commits += 1;
        let mut started = Vec::with_capacity(receipts.len());
        for ((&sid, proposal), receipt) in due.iter().zip(proposals).zip(receipts) {
            let task = self.trackers[j]
                .job()
                .stage(sid)
                .expect("committed stage exists")
                .task
                .clone();
            let schedule = proposal.schedule;
            let report = {
                let transport = &self.cfg.transport;
                self.plane.read_state(&self.db, |net, _, cluster| {
                    evaluate_schedule(&task, &schedule, net, cluster, transport)
                })?
            };
            let total_ns = report.total_ns();
            self.db.store_schedule(schedule);
            self.db.set_phase(task.id, TaskPhase::Running)?;
            self.trackers[j].start(sid);
            self.trackers[j].note_ideal_duration(sid, total_ns);
            self.reports.push(report);
            started.push((task.id, total_ns));
            self.active.insert(
                task.id,
                ActiveStage {
                    remaining_iterations: task.iterations,
                    job: j,
                    sid,
                    groomed: receipt.groomed,
                    task,
                },
            );
            self.pending[j].remove(&sid);
            self.stages_committed += 1;
        }
        Ok(GangOutcome::Started(started))
    }

    /// Give up on job `j`: gang retry budget exhausted (or a stage shed by
    /// the reschedule policy). Already-running stages finish and release
    /// their resources normally; no further stage is admitted.
    fn shed_job(&mut self, j: usize) {
        if !self.trackers[j].is_shed() {
            self.trackers[j].mark_shed();
            self.pending[j].clear();
            self.jobs_shed += 1;
        }
    }

    /// Complete the stage behind `id` at `now`; returns the job index and
    /// the release time of the batch of successors this completion freed
    /// (`None` when nothing was freed or the job is shed).
    fn finish_stage(&mut self, id: TaskId, now: SimTime) -> Result<Option<(usize, u64)>> {
        let Some(active) = self.active.remove(&id) else {
            return Ok(None);
        };
        if let Some(schedule) = self.db.take_schedule(id) {
            self.plane
                .release(&self.db, schedule.task, &active.groomed)?;
        }
        self.migrate_failures.remove(&id);
        self.mgr.complete(&self.db, id)?;
        let (j, sid) = (active.job, active.sid);
        let freed = self.trackers[j].complete(sid, now.as_ns());
        if self.trackers[j].is_done() {
            self.jobs_completed += 1;
            if let Some(ms) = self.trackers[j].makespan_ns() {
                self.makespan.record(ms);
            }
            if let Some(inf) = self.trackers[j].inflation_milli() {
                self.inflation.record(inf);
            }
        }
        if freed.is_empty() || self.trackers[j].is_shed() {
            return Ok(None);
        }
        // The freed successors form the next frontier: admit them together
        // once the slowest data item drains (the gang try the driver
        // schedules at the returned time).
        let batch_at = freed.iter().map(|&(_, at)| at).max().expect("non-empty");
        for (s, at) in freed {
            self.pending[j].insert(s, at);
        }
        Ok(Some((j, batch_at)))
    }

    /// Fault-time reschedule pass. `links` are the transitioned links;
    /// `all_down` narrows the candidate set to the blast radius (a healed
    /// link is an opportunity for any stage, so restorations widen to all
    /// active stages under both scopes).
    fn fault_pass(&mut self, links: &[flexsched_topo::LinkId], all_down: bool) -> Result<()> {
        if self.cfg.reschedule.is_none() {
            return Ok(());
        }
        let ids: Vec<TaskId> = if all_down {
            let hit = self.db.tasks_on_links(links);
            match self.cfg.repair_scope {
                RepairScope::Stage => hit,
                RepairScope::Job => {
                    // Widen every hit stage to all active stages of its job.
                    let jobs: BTreeSet<usize> = hit
                        .iter()
                        .filter_map(|t| self.stage_index.get(&t.0).map(|&(j, _)| j))
                        .collect();
                    self.active
                        .iter()
                        .filter(|(_, a)| jobs.contains(&a.job))
                        .map(|(&id, _)| id)
                        .collect()
                }
            }
        } else {
            self.active.keys().copied().collect()
        };
        self.repair_decisions += ids.len() as u64;
        self.reschedule_stages(&ids)
    }

    /// Reconsider the schedules of `ids` (stage tasks) — the monolithic
    /// testbeds' policy logic minus the admission-gate degrade path.
    fn reschedule_stages(&mut self, ids: &[TaskId]) -> Result<()> {
        let Some(policy) = self.cfg.reschedule.clone() else {
            return Ok(());
        };
        for &id in ids {
            if !self.active.contains_key(&id) {
                continue;
            }
            let Some(schedule) = self.db.schedule(id) else {
                continue;
            };
            let (task, remaining) = {
                let a = &self.active[&id];
                (a.task.clone(), a.remaining_iterations)
            };
            let retry_attempts = self.migrate_failures.get(&id).copied().unwrap_or(0);
            let scheduler = &*self.scheduler;
            let scratch = &mut self.scratch;
            let repairs_so_far = self.db.repair_count(id);
            let drift_forced = policy
                .resolve_after_repairs
                .is_some_and(|n| repairs_so_far >= n);
            let verdict = self.plane.read_state(&self.db, |net, opt, cluster| {
                reschedule::consider(
                    &policy,
                    scheduler,
                    &task,
                    &schedule,
                    remaining,
                    repairs_so_far,
                    retry_attempts,
                    net,
                    Some(opt),
                    cluster,
                    &self.cfg.transport,
                    scratch,
                )
            });
            if drift_forced {
                self.db.reset_repairs(id);
            }
            match verdict {
                Ok(reschedule::RescheduleVerdict::Migrate {
                    new_proposal,
                    repair_delta,
                    ..
                }) => {
                    let intent = match &repair_delta {
                        Some(delta) => crate::Intent::repair(&schedule, &new_proposal, delta),
                        None => crate::Intent::migrate(&schedule, &new_proposal),
                    };
                    if self.plane.apply(&self.db, intent).is_ok() {
                        let via_repair = repair_delta.is_some();
                        self.db.store_schedule(new_proposal.schedule);
                        self.reschedules += 1;
                        self.migrate_failures.remove(&id);
                        if via_repair {
                            self.repairs += 1;
                            self.db.note_repair(id);
                        } else {
                            self.db.reset_repairs(id);
                        }
                    } else {
                        *self.migrate_failures.entry(id).or_insert(0) += 1;
                    }
                }
                Ok(reschedule::RescheduleVerdict::Shed { .. }) => {
                    // A shed stage takes its whole job down: successors
                    // can never run without its output data items.
                    let (j, groomed) = {
                        let a = &self.active[&id];
                        (a.job, a.groomed.clone())
                    };
                    self.active.remove(&id);
                    if let Some(schedule) = self.db.take_schedule(id) {
                        self.plane.release(&self.db, schedule.task, &groomed)?;
                    }
                    self.db.set_phase(id, TaskPhase::Blocked)?;
                    self.migrate_failures.remove(&id);
                    self.shed_job(j);
                }
                Ok(reschedule::RescheduleVerdict::Keep { .. }) => {}
                Err(_) => {}
            }
        }
        Ok(())
    }

    fn finalize(self, duration: SimTime, events: u64) -> RunSummary {
        let mean_reserved_gbps = if duration > SimTime::ZERO {
            self.reserved_integral / duration.as_ns() as f64
        } else {
            0.0
        };
        let (mean_iteration_ms, sum_task_bandwidth_gbps) =
            flexsched_task::report::aggregate(&self.reports);
        let (groom_reuse_hits, groom_new_lights) = self.plane.groom_stats();
        let dag = DagStats {
            jobs: self.trackers.len() as u64,
            jobs_completed: self.jobs_completed,
            jobs_shed: self.jobs_shed,
            stages_committed: self.stages_committed,
            gang_commits: self.gang_commits,
            gang_rejections: self.gang_rejections,
            repair_decisions: self.repair_decisions,
            makespan_mean_ns: self.makespan.mean_ns(),
            makespan_p50_ns: self.makespan.quantile(0.50),
            makespan_p99_ns: self.makespan.quantile(0.99),
            makespan_max_ns: self.makespan.max_ns(),
            inflation_mean_milli: self.inflation.mean_ns(),
            inflation_p50_milli: self.inflation.quantile(0.50),
            inflation_p99_milli: self.inflation.quantile(0.99),
            inflation_max_milli: self.inflation.max_ns(),
        };
        RunSummary {
            scheduler: self.scheduler.name().to_string(),
            blocked: 0,
            retries: self.retries,
            reschedules: self.reschedules,
            repairs: self.repairs,
            peak_reserved_gbps: self.peak_reserved,
            mean_reserved_gbps,
            sum_task_bandwidth_gbps,
            mean_iteration_ms,
            groom_reuse_hits,
            groom_new_lights,
            duration,
            events,
            shed: self.jobs_shed as u32,
            degraded_decisions: 0,
            admission: None,
            sojourn: None,
            dag: Some(dag),
            reports: self.reports,
        }
    }
}

#[derive(Debug)]
enum Ev {
    /// Try to gang-admit job `j`'s due frontier; `attempt` counts prior
    /// tries of this frontier.
    GangTry(usize, u32),
    StageComplete(TaskId),
    FaultTick,
}

/// The fixed-tick DAG scenario driver. Build with [`DagTestbed::new`],
/// run with [`DagTestbed::run`].
pub struct DagTestbed {
    core: DagCore,
    faults: FaultSchedule,
}

impl DagTestbed {
    /// Build a DAG testbed over the configured topology with the given
    /// policy.
    pub fn new(cfg: DagTestbedConfig, scheduler: Box<dyn Scheduler>) -> Result<Self> {
        let (core, faults) = DagCore::new(cfg, scheduler)?;
        Ok(DagTestbed { core, faults })
    }

    /// Read-only access to the shared database (for inspection/tests).
    pub fn database(&self) -> &Database {
        &self.core.db
    }

    fn gang_attempt(
        &mut self,
        j: usize,
        attempt: u32,
        now: SimTime,
        queue: &mut EventQueue<Ev>,
    ) -> Result<()> {
        match self.core.try_gang(j, now)? {
            GangOutcome::Started(stages) => {
                for (id, total_ns) in stages {
                    queue.schedule(now + SimTime::from_ns(total_ns), Ev::StageComplete(id));
                }
            }
            GangOutcome::Blocked => {
                if attempt >= self.core.cfg.max_retries {
                    self.core.shed_job(j);
                } else {
                    queue.schedule(
                        now + self.core.cfg.retry_backoff,
                        Ev::GangTry(j, attempt + 1),
                    );
                }
            }
            GangOutcome::Empty => {}
        }
        Ok(())
    }

    /// Run the scenario to completion (or the configured horizon).
    pub fn run(mut self) -> Result<RunSummary> {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for (j, t) in self.core.trackers.iter().enumerate() {
            queue.schedule(SimTime::from_ns(t.job().arrival_ns), Ev::GangTry(j, 0));
        }
        if !self.faults.is_empty() {
            let first = self.faults.events()[0].at;
            queue.schedule(first, Ev::FaultTick);
        }
        let horizon = self.core.cfg.horizon;
        while let Some(at) = queue.peek_time() {
            if at > horizon {
                break;
            }
            let (now, ev) = queue.pop().expect("peeked event exists");
            self.core.sample_bandwidth(now);
            match ev {
                Ev::GangTry(j, attempt) => {
                    if attempt > 0 {
                        self.core.retries += 1;
                    }
                    self.gang_attempt(j, attempt, now, &mut queue)?;
                }
                Ev::StageComplete(id) => {
                    if let Some((j, batch_at)) = self.core.finish_stage(id, now)? {
                        queue.schedule(SimTime::from_ns(batch_at).max(now), Ev::GangTry(j, 0));
                    }
                }
                Ev::FaultTick => {
                    let faults = &mut self.faults;
                    let applied = self.core.db.write(|net, _, _| faults.apply_due(now, net))?;
                    if let Some(next) = self.faults.events().first() {
                        queue.schedule(next.at.max(now), Ev::FaultTick);
                    }
                    let links: Vec<flexsched_topo::LinkId> =
                        applied.iter().map(|e| e.link).collect();
                    let all_down = applied.iter().all(|e| e.down);
                    self.core.fault_pass(&links, all_down)?;
                }
            }
        }
        let duration = queue.now();
        self.core.sample_bandwidth(duration);
        let events = queue.processed();
        Ok(self.core.finalize(duration, events))
    }
}

/// First-error slot shared with the component (handlers cannot return
/// `Result`).
type ErrorSlot = Rc<RefCell<Option<OrchError>>>;

/// The DAG control plane as one simcore component: gang tries arrive as
/// `TaskArrival { index: job }`, retries as `RetryDue`, and stage
/// completions as `TaskDeparture { task: stage-task-id }`. The core sits
/// in an `Option` so the driver can take it back for `finalize` after the
/// simulation ends.
struct DagControl {
    core: Option<DagCore>,
    err: ErrorSlot,
}

fn gang_attempt(
    core: &mut DagCore,
    j: usize,
    attempt: u32,
    now: SimTime,
    ctx: &mut SimContext<'_>,
) -> Result<()> {
    match core.try_gang(j, now)? {
        GangOutcome::Started(stages) => {
            for (id, total_ns) in stages {
                ctx.schedule_self_after(
                    SimTime::from_ns(total_ns),
                    Event::TaskDeparture { task: id.0 },
                );
            }
        }
        GangOutcome::Blocked => {
            if attempt >= core.cfg.max_retries {
                core.shed_job(j);
            } else {
                ctx.schedule_self_after(
                    core.cfg.retry_backoff,
                    Event::RetryDue {
                        index: j as u64,
                        attempt: attempt + 1,
                    },
                );
            }
        }
        GangOutcome::Empty => {}
    }
    Ok(())
}

fn dispatch(core: &mut DagCore, at: SimTime, event: Event, ctx: &mut SimContext<'_>) -> Result<()> {
    match event {
        Event::TaskArrival { index, attempt } => {
            gang_attempt(core, index as usize, attempt, at, ctx)?;
        }
        Event::RetryDue { index, attempt } => {
            core.retries += 1;
            gang_attempt(core, index as usize, attempt, at, ctx)?;
        }
        Event::TaskDeparture { task } => {
            if let Some((j, batch_at)) = core.finish_stage(TaskId(task), at)? {
                ctx.schedule_at(
                    SimTime::from_ns(batch_at).max(at),
                    ctx.self_id(),
                    Event::TaskArrival {
                        index: j as u64,
                        attempt: 0,
                    },
                );
            }
        }
        Event::LinkFault { link } => {
            core.plane.set_link_down(&core.db, link, true)?;
            core.fault_pass(&[link], true)?;
        }
        Event::LinkRepair { link } => {
            core.plane.set_link_down(&core.db, link, false)?;
            core.fault_pass(&[link], false)?;
        }
        _ => {}
    }
    Ok(())
}

impl Component for DagControl {
    fn handle(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) {
        let Some(core) = self.core.as_mut() else {
            return;
        };
        core.sample_bandwidth(at);
        if let Err(e) = dispatch(core, at, event, ctx) {
            self.err.borrow_mut().get_or_insert(e);
            ctx.halt();
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The event-driven DAG scenario driver (simcore engine).
pub struct DagEventTestbed {
    core: DagCore,
    faults: FaultSchedule,
}

impl DagEventTestbed {
    /// Build an event-driven DAG testbed (same scenario surface as
    /// [`DagTestbed::new`]).
    pub fn new(cfg: DagTestbedConfig, scheduler: Box<dyn Scheduler>) -> Result<Self> {
        let (core, faults) = DagCore::new(cfg, scheduler)?;
        Ok(DagEventTestbed { core, faults })
    }

    /// Read-only access to the shared database (for inspection/tests).
    pub fn database(&self) -> &Database {
        &self.core.db
    }

    /// Run the scenario to its horizon.
    pub fn run(self) -> Result<RunSummary> {
        let mut sim = Simulation::new();
        let err: ErrorSlot = Rc::new(RefCell::new(None));
        let horizon = self.core.cfg.horizon;
        let arrivals: Vec<(usize, u64)> = self
            .core
            .trackers
            .iter()
            .enumerate()
            .map(|(j, t)| (j, t.job().arrival_ns))
            .collect();
        let fault_events = self.faults.events().to_vec();
        let control = DagControl {
            core: Some(self.core),
            err: Rc::clone(&err),
        };
        let control_id = sim.add_component("dag-control", Box::new(control));
        for (j, arrival_ns) in arrivals {
            sim.schedule_at(
                SimTime::from_ns(arrival_ns),
                control_id,
                Event::TaskArrival {
                    index: j as u64,
                    attempt: 0,
                },
            );
        }
        for e in &fault_events {
            let ev = if e.down {
                Event::LinkFault { link: e.link }
            } else {
                Event::LinkRepair { link: e.link }
            };
            sim.schedule_at(e.at, control_id, ev);
        }
        sim.run_until(horizon);
        if let Some(e) = err.borrow_mut().take() {
            return Err(e);
        }
        let events = sim.processed();
        let control = sim
            .component_mut::<DagControl>(control_id)
            .expect("dag control registered");
        let core = control.core.take().expect("core present after run");
        let duration = core.last_sample;
        Ok(core.finalize(duration, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_sched::FlexibleMst;

    fn quick_cfg(seed: u64) -> DagTestbedConfig {
        DagTestbedConfig {
            workload: WorkloadConfig::seeded_scenario(seed, 8, 5),
            dag: flexsched_task::DagConfig {
                num_jobs: 5,
                ..flexsched_task::DagConfig::default()
            },
            fault_seed: seed,
            // Jobs arrive within tens of ms but the slowest completes
            // past the default 60 s horizon, so give it room.
            horizon: SimTime::from_secs(600),
            ..DagTestbedConfig::default()
        }
    }

    fn fingerprint(db: &Database) -> String {
        db.read(|net, opt, _| format!("{net:?}|{opt:?}"))
    }

    /// Fault-free smoke: every job's every stage commits through a gang,
    /// all jobs finish, the inflation floor holds (makespan cannot beat
    /// the ideal critical path) and reservations drain to zero.
    #[test]
    fn dag_scenario_completes_all_jobs() {
        let tb = DagTestbed::new(quick_cfg(11), Box::new(FlexibleMst::paper())).unwrap();
        let db = tb.database().clone();
        let summary = tb.run().unwrap();
        let dag = summary.dag.expect("dag drivers always report stats");
        assert_eq!(dag.jobs, 5);
        assert_eq!(dag.jobs_completed, 5, "fault-free jobs must all finish");
        assert_eq!(dag.jobs_shed, 0);
        assert_eq!(dag.gang_rejections, 0, "no contention injected");
        assert!(
            dag.stages_committed >= dag.jobs * 3,
            "every job has at least 3 stages"
        );
        assert!(dag.gang_commits >= dag.jobs);
        assert!(
            dag.gang_commits < dag.stages_committed,
            "fan-out must produce at least one multi-member gang"
        );
        assert_eq!(dag.stages_committed as usize, summary.reports.len());
        assert!(dag.makespan_p50_ns > 0);
        assert!(dag.makespan_max_ns >= dag.makespan_p50_ns);
        assert!(
            dag.inflation_p50_milli >= 1000,
            "makespan below the ideal critical path: {}",
            dag.inflation_p50_milli
        );
        assert!(db.total_reserved_gbps().abs() < 1e-9, "reservations leaked");
    }

    /// The tentpole pin: on a fault-free scenario the simcore driver is a
    /// port, not a re-interpretation — identical reports, counters, DAG
    /// stats, event counts and a bit-identical database fingerprint.
    #[test]
    fn dag_event_driver_matches_fixed_tick_when_fault_free() {
        let cfg = quick_cfg(11);
        let tick_tb = DagTestbed::new(cfg.clone(), Box::new(FlexibleMst::paper())).unwrap();
        let tick_db = tick_tb.database().clone();
        let tick = tick_tb.run().unwrap();
        let ev_tb = DagEventTestbed::new(cfg, Box::new(FlexibleMst::paper())).unwrap();
        let ev_db = ev_tb.database().clone();
        let event = ev_tb.run().unwrap();
        assert_eq!(tick.reports, event.reports, "stage reports differ");
        assert_eq!(tick.retries, event.retries);
        assert_eq!(tick.dag, event.dag, "DAG stats differ");
        assert_eq!(tick.events, event.events, "event counts differ");
        assert_eq!(tick.duration, event.duration);
        assert!((tick.mean_reserved_gbps - event.mean_reserved_gbps).abs() < 1e-12);
        assert_eq!(
            fingerprint(&tick_db),
            fingerprint(&ev_db),
            "database fingerprints differ"
        );
    }

    /// Fault storms with stage-scoped repair: the run still completes and
    /// the repair/reschedule invariant from the monolithic testbeds holds.
    #[test]
    fn dag_run_survives_fault_storms() {
        let mut cfg = quick_cfg(13);
        cfg.fault_count = 5;
        cfg.reschedule = Some(ReschedulePolicy::default());
        let summary = DagTestbed::new(cfg, Box::new(FlexibleMst::paper()))
            .unwrap()
            .run()
            .unwrap();
        let dag = summary.dag.unwrap();
        assert_eq!(dag.jobs_completed + dag.jobs_shed, dag.jobs);
        assert!(summary.repairs <= summary.reschedules);
    }
}
