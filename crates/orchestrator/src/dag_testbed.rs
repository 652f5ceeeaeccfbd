//! The DAG-job scenario driver: gang-admitted stage frontiers end to end.
//!
//! An [`AiJob`](flexsched_task::AiJob) is a typed stage DAG — compute,
//! all-reduce and pipeline-transfer stages joined by data-item edges with
//! Gbit demands. This module drives jobs through the same admission path
//! the monolithic testbed uses (`Pipeline::admit`, where a monolithic task
//! is a gang of one), with three DAG-specific behaviours:
//!
//! * **Gang admission.** A completed stage releases its successors once
//!   their data items drain; the released batch is admitted as one gang —
//!   one proposal per stage, committed all-or-nothing through
//!   [`crate::CommitPlane::apply_gang`]. One member's conflict
//!   ([`crate::commit::GangConflict`]) leaves the database bit-identical
//!   and the whole frontier retries after a backoff. What the driver adds
//!   is the tracker's bookkeeping and one scheduled completion per
//!   started stage.
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
//! [`DagEventTestbed`] runs on the [`flexsched_simcore::Simulation`]
//! engine, where gang attempts are `TaskArrival { index: job }` events and
//! stage completions are `TaskDeparture { task: stage-task-id }` events.

use crate::database::Database;
use crate::pipeline::{seed_faults, Admitted, Pipeline, World};
use crate::scenario::RunSummary;
use crate::{OrchError, Result};
use flexsched_sched::{JobTracker, ReschedulePolicy, Scheduler, SelectionStrategy};
use flexsched_simcore::{Component, Event, LatencyHistogram, SimContext, Simulation};
use flexsched_simnet::fault::FaultSchedule;
use flexsched_simnet::{SimTime, Transport};
use flexsched_task::{AiTask, JobStream, TaskId, WorkloadConfig};
use flexsched_topo::builders::{backbone, fat_tree, metro, BackboneParams, MetroParams};
use flexsched_topo::{LinkId, Topology};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// Which physical topology the DAG scenario runs over (the driver's
/// tests run all three).
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
    /// The fabric; [`OrchError::FatTreeArity`] for a fat-tree arity the
    /// builder would refuse.
    fn build(&self) -> Result<Topology> {
        Ok(match self {
            DagTopology::Metro(p) => metro(p),
            DagTopology::FatTree { k, .. } if *k < 2 || k % 2 != 0 => {
                return Err(OrchError::FatTreeArity(*k))
            }
            DagTopology::FatTree { k, link_gbps } => fat_tree(*k, *link_gbps),
            DagTopology::Backbone(p) => backbone(p),
        })
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

/// The DAG control plane as one simcore component: trackers, gang
/// admission, stage completion and fault reaction over the shared
/// [`Pipeline`]. Gang tries arrive as `TaskArrival { index: job }`,
/// retries as `RetryDue`, and stage completions as
/// `TaskDeparture { task: stage-task-id }`.
struct DagCore {
    cfg: DagTestbedConfig,
    pipe: Pipeline,
    trackers: Vec<JobTracker>,
    /// Stage task id → (job index, stage id), for every stage whose
    /// containers are still placed: an entry leaves when its stage retires.
    stage_index: BTreeMap<u64, (usize, u32)>,
    stages_committed: u64,
    gang_commits: u64,
    gang_rejections: u64,
    repair_decisions: u64,
    jobs_completed: u64,
    jobs_shed: u64,
    retries: u32,
    makespan: LatencyHistogram,
    inflation: LatencyHistogram,
    /// First handler failure (handlers cannot return `Result`); the run
    /// halts on it.
    err: Option<OrchError>,
}

impl DagCore {
    fn new(cfg: DagTestbedConfig, scheduler: Box<dyn Scheduler>) -> Result<(Self, FaultSchedule)> {
        let world = World::new(
            cfg.topology.build()?,
            cfg.fault_count,
            cfg.fault_window.unwrap_or(cfg.horizon),
            cfg.mean_repair,
            cfg.fault_seed,
        );
        let jobs = JobStream::new(&world.topo, &cfg.workload, cfg.dag.clone());
        let mut pipe = Pipeline::new(
            world.db,
            world.plane,
            scheduler,
            cfg.selection,
            cfg.transport.clone(),
            cfg.reschedule.clone(),
        );
        pipe.keep_reports();
        let mut stage_index = BTreeMap::new();
        let mut trackers = Vec::new();
        for (j, job) in jobs.enumerate() {
            for stage in &job.stages {
                pipe.place(&stage.task)?;
                stage_index.insert(stage.task.id.0, (j, stage.id));
            }
            // Roots release at the job's arrival; the first gang try for
            // the job fires then.
            trackers.push(JobTracker::new(job));
        }
        Ok((
            DagCore {
                cfg,
                pipe,
                trackers,
                stage_index,
                stages_committed: 0,
                gang_commits: 0,
                gang_rejections: 0,
                repair_decisions: 0,
                jobs_completed: 0,
                jobs_shed: 0,
                retries: 0,
                makespan: LatencyHistogram::new(),
                inflation: LatencyHistogram::new(),
                err: None,
            },
            world.faults,
        ))
    }

    /// Try to gang-admit job `j`'s due frontier (its tracker's ready stages
    /// whose data has drained by `now`); `attempt` counts prior tries of this
    /// frontier. A blocked gang retries after the backoff until the budget
    /// is spent, then the job is shed.
    fn gang_attempt(
        &mut self,
        j: usize,
        attempt: u32,
        now: SimTime,
        ctx: &mut SimContext<'_>,
    ) -> Result<()> {
        if self.trackers[j].is_shed() {
            return Ok(());
        }
        let tracker = &self.trackers[j];
        let due: Vec<u32> = (tracker.ready().into_iter())
            .filter(|&s| tracker.release_time(s).is_some_and(|at| at <= now.as_ns()))
            .collect();
        if due.is_empty() || self.commit_gang(j, &due, now, ctx)? {
            return Ok(());
        }
        if attempt >= self.cfg.max_retries {
            self.shed_job(j)?;
        } else {
            ctx.schedule_self_after(
                self.cfg.retry_backoff,
                Event::RetryDue {
                    index: j as u64,
                    attempt: attempt + 1,
                },
            );
        }
        Ok(())
    }

    /// Admit the due stages as one gang through the pipeline, then start
    /// them in the tracker and schedule one completion per member. `false`
    /// = nothing admitted this attempt (no feasible tree, or a gang
    /// conflict, which is counted).
    fn commit_gang(
        &mut self,
        j: usize,
        due: &[u32],
        now: SimTime,
        ctx: &mut SimContext<'_>,
    ) -> Result<bool> {
        let job = self.trackers[j].job();
        let tasks: Vec<&AiTask> = (due.iter())
            .map(|&s| &job.stage(s).expect("a ready stage exists").task)
            .collect();
        let ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
        let runs = match self.pipe.admit(&tasks, now, false)? {
            Admitted::Started(runs) => runs,
            Admitted::Infeasible => return Ok(false),
            Admitted::Rejected => {
                self.gang_rejections += 1;
                return Ok(false);
            }
        };
        self.gang_commits += 1;
        for ((&sid, id), run) in due.iter().zip(ids).zip(runs) {
            self.trackers[j].start(sid);
            self.trackers[j].note_ideal_duration(sid, run.as_ns());
            ctx.schedule_self_after(run, Event::TaskDeparture { task: id.0 });
            self.stages_committed += 1;
        }
        Ok(true)
    }

    /// Give up on job `j`: gang retry budget exhausted (or a stage shed by
    /// the reschedule policy). Already-running stages finish and retire
    /// normally; the stages that have not started never will, so they
    /// retire now and free the containers placed for them.
    fn shed_job(&mut self, j: usize) -> Result<()> {
        if self.trackers[j].is_shed() {
            return Ok(());
        }
        self.trackers[j].mark_shed();
        self.jobs_shed += 1;
        for stage in &self.trackers[j].job().stages {
            let id = stage.task.id;
            if !self.pipe.running().contains_key(&id) && self.stage_index.remove(&id.0).is_some() {
                self.pipe.retire(id)?;
            }
        }
        Ok(())
    }

    /// Complete the stage behind `id` at `now` and queue the gang try for
    /// the batch of successors this completion freed.
    fn finish_stage(&mut self, id: TaskId, now: SimTime, ctx: &mut SimContext<'_>) -> Result<()> {
        // A stage the reschedule pass shed retired with its job already.
        let Some((j, sid)) = self.stage_index.remove(&id.0) else {
            return Ok(());
        };
        self.pipe.retire(id)?;
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
            return Ok(());
        }
        // The freed successors form the next frontier: admit them together
        // once the slowest data item drains.
        let batch_at = freed.iter().map(|&(_, at)| at).max().expect("non-empty");
        ctx.schedule_at(
            SimTime::from_ns(batch_at).max(now),
            ctx.self_id(),
            Event::TaskArrival {
                index: j as u64,
                attempt: 0,
            },
        );
        Ok(())
    }

    /// `link` went down or came back: run the pipeline's fault pass over
    /// the stages it can affect, widened under [`RepairScope::Job`] to every
    /// running stage of a hit job (a heal already takes every running
    /// stage). A shed stage takes its whole job down: successors can never
    /// run without its output data items.
    fn link_transition(&mut self, link: LinkId, down: bool, now: SimTime) -> Result<()> {
        let mut ids = self.pipe.link_transition(link, down)?;
        if down && self.cfg.repair_scope == RepairScope::Job {
            let job_of = |id: &TaskId| self.stage_index.get(&id.0).map(|&(j, _)| j);
            let jobs: BTreeSet<usize> = ids.iter().filter_map(job_of).collect();
            ids = self
                .pipe
                .running()
                .keys()
                .filter(|id| job_of(id).is_some_and(|j| jobs.contains(&j)))
                .copied()
                .collect();
        }
        self.repair_decisions += ids.len() as u64;
        for id in self.pipe.reschedule_pass(&ids, now, false)? {
            if let Some((j, _)) = self.stage_index.remove(&id.0) {
                self.shed_job(j)?;
            }
        }
        Ok(())
    }

    fn dispatch(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) -> Result<()> {
        match event {
            Event::TaskArrival { index, attempt } => {
                self.gang_attempt(index as usize, attempt, at, ctx)
            }
            Event::RetryDue { index, attempt } => {
                self.retries += 1;
                self.gang_attempt(index as usize, attempt, at, ctx)
            }
            Event::TaskDeparture { task } => self.finish_stage(TaskId(task), at, ctx),
            Event::LinkFault { link } => self.link_transition(link, true, at),
            Event::LinkRepair { link } => self.link_transition(link, false, at),
            _ => Ok(()),
        }
    }

    fn summary(&mut self, events: u64) -> RunSummary {
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
            retries: self.retries,
            shed: self.jobs_shed as u32,
            dag: Some(dag),
            ..self.pipe.summary(events)
        }
    }
}

impl Component for DagCore {
    fn handle(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) {
        self.pipe.sample_reserved(at);
        if let Err(e) = self.dispatch(at, event, ctx) {
            self.err.get_or_insert(e);
            ctx.halt();
        } else {
            self.pipe.debug_check_after(event, at);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The DAG scenario driver (simcore engine).
pub struct DagEventTestbed {
    core: DagCore,
    faults: FaultSchedule,
}

impl DagEventTestbed {
    /// Build a DAG testbed over the configured topology with the given
    /// policy.
    pub fn new(cfg: DagTestbedConfig, scheduler: Box<dyn Scheduler>) -> Result<Self> {
        let (core, faults) = DagCore::new(cfg, scheduler)?;
        Ok(DagEventTestbed { core, faults })
    }

    /// Read-only access to the shared database (for inspection/tests).
    pub fn database(&self) -> &Database {
        &self.core.pipe.db
    }

    /// Run the scenario to its horizon.
    pub fn run(self) -> Result<RunSummary> {
        let mut sim = Simulation::new();
        let horizon = self.core.cfg.horizon;
        let arrivals: Vec<u64> = self
            .core
            .trackers
            .iter()
            .map(|t| t.job().arrival_ns)
            .collect();
        let control_id = sim.add_component("dag-control", Box::new(self.core));
        for (j, arrival_ns) in arrivals.into_iter().enumerate() {
            sim.schedule_at(
                SimTime::from_ns(arrival_ns),
                control_id,
                Event::TaskArrival {
                    index: j as u64,
                    attempt: 0,
                },
            );
        }
        seed_faults(&mut sim, control_id, &self.faults);
        sim.run_until(horizon);
        let events = sim.processed();
        let core = sim
            .component_mut::<DagCore>(control_id)
            .expect("dag control registered");
        match core.err.take() {
            Some(e) => Err(e),
            None => Ok(core.summary(events)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{ring_spans, saturate};
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

    /// The paper metro, a 4-ary fat-tree and a 2 000-link backbone.
    fn fabrics() -> [DagTopology; 3] {
        [
            DagTopology::default(),
            DagTopology::FatTree {
                k: 4,
                link_gbps: 400.0,
            },
            DagTopology::Backbone(BackboneParams::default().with_target_links(2_000)),
        ]
    }

    fn fingerprint(db: &Database) -> String {
        db.read(|net, opt, _| format!("{net:?}|{opt:?}"))
    }

    /// FNV-1a-64, the digest the golden constants below were recorded with.
    fn fnv1a64(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Debug builds check the state invariant every few events: a
    /// reservation no schedule owns, written between two events, fails
    /// the next checked one.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "invariant `reservations` broken after")]
    fn an_unowned_reservation_fails_the_next_checked_event() {
        let tb = DagEventTestbed::new(quick_cfg(11), Box::new(FlexibleMst::paper())).unwrap();
        let db = tb.database().clone();
        let first = SimTime::from_ns(tb.core.trackers[0].job().arrival_ns);
        let mut sim = Simulation::new();
        let id = sim.add_component("dag-control", Box::new(tb.core));
        let arrival = Event::TaskArrival {
            index: 0,
            attempt: 0,
        };
        sim.schedule_at(first, id, arrival);
        assert!(sim.step());
        let dl = flexsched_simnet::DirLink::new(
            flexsched_topo::LinkId(0),
            flexsched_topo::Direction::AtoB,
        );
        db.write(|net, _, _| net.reserve(dl, 1.0)).unwrap();
        for _ in 0..crate::pipeline::INVARIANT_STRIDE {
            sim.step();
        }
    }

    /// Fault-free smoke on every fabric: every job's every stage commits
    /// through a gang, all jobs finish, the inflation floor holds (makespan
    /// cannot beat the ideal critical path) and reservations drain to zero.
    #[test]
    fn dag_scenario_completes_all_jobs() {
        for topology in fabrics() {
            println!("fabric: {topology:?}");
            let cfg = DagTestbedConfig {
                topology,
                ..quick_cfg(11)
            };
            let tb = DagEventTestbed::new(cfg, Box::new(FlexibleMst::paper())).unwrap();
            let db = tb.database().clone();
            let summary = tb.run().unwrap();
            let dag = summary.dag.expect("dag runs always report stats");
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
    }

    /// Golden pin: on the fault-free scenario the driver reproduces, bit
    /// for bit, the run recorded from the fixed-tick DAG driver this one
    /// was ported from (PR 12's tree, `quick_cfg(11)` under
    /// `FlexibleMst::paper()`). The database fingerprint carries the two
    /// global mutation counts and the lightpath-id sequence, so this pins
    /// the order of state mutations, not just the end state.
    ///
    /// Event count and duration are PR 12's. The three hashes were
    /// re-recorded when KMB gave way to the Mehlhorn construction (PR 22):
    /// 3 of the 28 stages (tasks 7, 8, 9) get a different tree, which
    /// moves their broadcast / upload times by < 0.4 %, task 9's bandwidth
    /// by +6 %, `makespan_mean_ns` by 1.2 ns and the reserved links. The
    /// database hash alone was re-recorded again when the per-link version
    /// arrays left the `Debug` text it folds (PR 24), and once more when
    /// the write-only `reservations_made` counter left it; the other two
    /// and every count passed unedited.
    #[test]
    fn dag_event_driver_matches_fixed_tick_when_fault_free() {
        let tb = DagEventTestbed::new(quick_cfg(11), Box::new(FlexibleMst::paper())).unwrap();
        let db = tb.database().clone();
        let s = tb.run().unwrap();
        assert_eq!(s.events, 46, "event count");
        assert_eq!(s.duration, SimTime::from_ns(79_331_445_110));
        assert_eq!((s.retries, s.blocked, s.shed), (0, 0, 0));
        assert_eq!(s.reports.len(), 28);
        assert_eq!(
            fnv1a64(&format!("{:?}", s.reports)),
            0x752c_a02f_5515_f240,
            "stage reports differ"
        );
        assert_eq!(
            fnv1a64(&format!("{:?}", s.dag)),
            0x570b_cae1_8166_945c,
            "DAG stats differ"
        );
        assert_eq!(
            fnv1a64(&fingerprint(&db)),
            0xe199_f8c1_b259_2a2d,
            "database fingerprints differ"
        );
    }

    /// Fault storms with stage-scoped repair: the run still completes and
    /// the repair/reschedule invariant from the monolithic testbed holds.
    /// The metro takes a light storm over the whole horizon; every fabric
    /// then takes a dense one (60 multi-second outages inside the first
    /// minute, where the jobs' frontiers are released).
    #[test]
    fn dag_run_survives_fault_storms() {
        let mut light = quick_cfg(13);
        light.fault_count = 5;
        let dense = |topology| DagTestbedConfig {
            topology,
            fault_count: 60,
            fault_window: Some(SimTime::from_secs(60)),
            mean_repair: SimTime::from_secs(2),
            ..quick_cfg(13)
        };
        for mut cfg in std::iter::once(light).chain(fabrics().map(dense)) {
            println!("fabric: {:?}, {} faults", cfg.topology, cfg.fault_count);
            cfg.reschedule = Some(ReschedulePolicy::default());
            let summary = DagEventTestbed::new(cfg, Box::new(FlexibleMst::paper()))
                .unwrap()
                .run()
                .unwrap();
            let dag = summary.dag.unwrap();
            assert_eq!(dag.jobs_completed + dag.jobs_shed, dag.jobs);
            assert!(summary.repairs <= summary.reschedules);
        }
    }

    /// The DAG twin of `pipeline::tests::late_migrations_are_priced_at_what_is_left`:
    /// a fault / heal pass prices a stage over the iterations it has left.
    /// Load that makes a re-solve 3.6 ms cheaper per iteration migrates a
    /// stage with ten iterations before it and leaves the same stage alone
    /// on its last.
    #[test]
    fn late_stage_migrations_are_priced_at_what_is_left() {
        let cfg = DagTestbedConfig {
            workload: WorkloadConfig {
                model_mix: vec![1],
                iterations: (10, 10),
                ..WorkloadConfig::seeded_scenario(11, 8, 5)
            },
            dag: flexsched_task::DagConfig {
                num_jobs: 1,
                ..flexsched_task::DagConfig::default()
            },
            // 7.5 ms of saving pays for a migration.
            reschedule: Some(ReschedulePolicy::default()),
            ..quick_cfg(11)
        };
        let (core, _) = DagCore::new(cfg, Box::new(FlexibleMst::paper())).unwrap();
        let arrival = SimTime::from_ns(core.trackers[0].job().arrival_ns);
        let mut sim = Simulation::new();
        let id = sim.add_component("dag-control", Box::new(core));
        let first_try = Event::TaskArrival {
            index: 0,
            attempt: 0,
        };
        sim.schedule_at(arrival, id, first_try);
        sim.run_until(arrival);
        let core = sim.component_mut::<DagCore>(id).unwrap();
        assert!(
            !core.pipe.running().is_empty(),
            "the root frontier is running"
        );

        // Fill every WDM-ring span the running stages reserve on.
        let stages: Vec<TaskId> = core.pipe.running().keys().copied().collect();
        for stage in &stages {
            let schedule = core.pipe.db.schedule(*stage).unwrap();
            saturate(&core.pipe, &ring_spans(&core.pipe, &schedule));
        }
        // A heal reconsiders every running stage; healing a link that was
        // never down changes nothing else.
        let healthy = flexsched_topo::LinkId(0);
        let last_iteration = arrival + SimTime::from_secs(3_600);
        for r in core.pipe.running().values() {
            assert_eq!(r.clock.remaining(arrival), 10);
            assert_eq!(r.clock.remaining(last_iteration), 1);
        }
        let schedules = |core: &DagCore| {
            let all: Vec<_> = stages.iter().map(|s| core.pipe.db.schedule(*s)).collect();
            format!("{all:?}")
        };
        let before = schedules(core);
        core.link_transition(healthy, false, last_iteration)
            .unwrap();
        assert_eq!(
            schedules(core),
            before,
            "one iteration of saving does not pay for the interruption"
        );
        core.link_transition(healthy, false, arrival).unwrap();
        let summary = core.summary(0);
        assert_eq!(
            (summary.reschedules as usize, summary.repairs),
            (stages.len(), 0),
            "ten iterations of the same saving do"
        );
        // Each stage's report says it moved once.
        let moved: Vec<u32> = summary.reports.iter().map(|r| r.reschedules).collect();
        assert_eq!(moved, vec![1; stages.len()]);
    }

    /// Regression: a shed job's stages that never started kept their
    /// containers (placed when the job was built) and their task records to
    /// the end of the run. Shedding job 0 before its first gang try now
    /// leaves an empty ledger once the other jobs finish.
    #[test]
    fn a_shed_job_retires_its_unstarted_stages() {
        let tb = DagEventTestbed::new(quick_cfg(11), Box::new(FlexibleMst::paper())).unwrap();
        let db = tb.database().clone();
        let DagEventTestbed { mut core, faults } = tb;
        core.shed_job(0).unwrap();
        let dag = DagEventTestbed { core, faults }.run().unwrap().dag.unwrap();
        assert_eq!((dag.jobs_shed, dag.jobs_completed), (1, dag.jobs - 1));
        assert_eq!(db.ledger_leftovers(), Vec::<String>::new());
    }

    /// A fat-tree arity the builder would refuse is a typed error from the
    /// constructor, not a panic inside it.
    #[test]
    fn a_bad_fat_tree_arity_is_rejected_before_building() {
        for k in [3, 0] {
            let cfg = DagTestbedConfig {
                topology: DagTopology::FatTree {
                    k,
                    link_gbps: 400.0,
                },
                ..quick_cfg(2)
            };
            let got = DagEventTestbed::new(cfg, Box::new(FlexibleMst::paper()));
            assert_eq!(got.err(), Some(OrchError::FatTreeArity(k)));
        }
    }
}
