//! The pipeline replay: benchmark-owned `simcore` components that mirror
//! the real drivers' event handling call for call, with a span around
//! every call into a layer's public function (all of them through
//! [`crate::layers`]).
//!
//! [`MonoReplay`] mirrors `EventTestbed`'s control plane in bounded-memory
//! mode — arrivals, retries, departures, the admission gate, link faults
//! and the periodic reschedule check. [`DagReplay`] mirrors the DAG
//! driver's fault-free path — `JobStream` -> `JobTracker` -> gang commit
//! -> stage completion. Both are deterministic ports: from one seed they
//! follow the real driver's trajectory exactly, which the traced run
//! checks by comparing digests. What the replay's handlers spend outside
//! any layer span is glue the drivers add themselves.

use crate::harness::Digest;
use crate::layers::{
    self, AdmissionController, AiTask, AiTaskManager, Component, DagTestbedConfig, Event,
    FaultSchedule, FixedSpff, Intent, JobStream, JobTracker, LatencyHistogram, OrchError,
    OrchResult, Proposal, RescheduleVerdict, Scheduler, ScratchPool, ServiceClass, SimContext,
    SimTime, Simulation, TaskId, TaskPhase, TaskReport, TestbedConfig, TimedScheduler, Verdict,
    WorkloadStream, World,
};
use crate::trace::{self, span, Layer};
use crate::workloads::Scenario;
use std::any::Any;
use std::collections::BTreeMap;
use std::time::Instant;

/// What a replay run produced.
pub struct ReplayRun {
    /// The simulated outcome, digested like a real driver's.
    pub digest: Digest,
    /// Host wall time of the event loop, s.
    pub wall_s: f64,
    /// Layer self time recorded inside the event loop, s (0 untraced).
    pub covered_s: f64,
    /// High-water mark of the event heap.
    pub peak_pending: u64,
}

/// Time-weighted reserved-bandwidth sampling, once per handled event (the
/// drivers' `BandwidthProbe`).
#[derive(Default)]
struct BandwidthProbe {
    peak: f64,
    integral: f64,
    last_sample: SimTime,
}

impl BandwidthProbe {
    fn sample(&mut self, current: f64, now: SimTime) {
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

fn event_subject(event: &Event) -> u64 {
    match *event {
        Event::TaskArrival { index, .. } | Event::RetryDue { index, .. } => index,
        Event::TaskDeparture { task } => task,
        _ => u64::MAX,
    }
}

/// Drive `sim` to exhaustion with a `simcore.engine` span per dispatch.
/// Returns the loop's wall time and the layer self time recorded inside
/// it (spans from construction, before the loop, are not the loop's).
fn run_engine(sim: &mut Simulation) -> (f64, f64) {
    let before = trace::with(|t| t.layers_self_ns());
    let start = Instant::now();
    while layers::step(sim) {}
    let wall_s = start.elapsed().as_secs_f64();
    let covered_ns = trace::with(|t| t.layers_self_ns()) - before;
    (wall_s, covered_ns as f64 / 1e9)
}

struct ActiveTask {
    task: AiTask,
    groomed: Vec<u64>,
    remaining_iterations: u32,
}

/// Mirror of `EventTestbed`'s control plane (`MemoryMode::Bounded`,
/// single-lock plane, no background traffic).
pub struct MonoReplay {
    scn: Scenario,
    cfg: TestbedConfig,
    world: World,
    mgr: AiTaskManager,
    scheduler: Box<dyn Scheduler>,
    degraded_scheduler: TimedScheduler,
    admission: Option<AdmissionController>,
    scratch: ScratchPool,
    stream: WorkloadStream,
    pending: Option<AiTask>,
    waiting_tasks: BTreeMap<u64, AiTask>,
    deferred: BTreeMap<u64, AiTask>,
    active: BTreeMap<TaskId, ActiveTask>,
    waiting: usize,
    migrate_failures: BTreeMap<TaskId, u32>,
    blocked: u64,
    shed: u64,
    degraded_decisions: u64,
    retries: u64,
    reschedules: u64,
    repairs: u64,
    probe: BandwidthProbe,
    err: Option<OrchError>,
    sojourn: LatencyHistogram,
    queueing: LatencyHistogram,
    completed: u64,
    started: u64,
    iter_ms_sum: f64,
    task_bw_sum: f64,
    /// An event past the horizon reached the handler (the real driver
    /// leaves those queued); it halted the run and is not counted.
    overshot: bool,
}

impl MonoReplay {
    /// Run the scenario through the replay; spans go to the thread's
    /// tracer when it is recording.
    pub fn run(scn: Scenario) -> Result<ReplayRun, String> {
        let cfg = scn.testbed_config();
        let world = World::new(layers::metro(&cfg.metro));
        let mut stream = WorkloadStream::new(&world.topo, &cfg.workload);
        let faults = if cfg.fault_count > 0 {
            FaultSchedule::random(
                &world.topo,
                cfg.fault_count,
                cfg.horizon,
                cfg.mean_repair,
                cfg.fault_seed,
            )
        } else {
            FaultSchedule::new()
        };
        let pending = layers::next_task(&mut stream);
        let first = pending.as_ref().map(|t| (t.arrival_ns, t.id.0));
        let control = MonoReplay {
            scn,
            world,
            mgr: AiTaskManager::new(),
            scheduler: Box::new(TimedScheduler(scn.scheduler())),
            degraded_scheduler: TimedScheduler(Box::new(FixedSpff)),
            admission: cfg.admission.clone().map(AdmissionController::new),
            scratch: ScratchPool::new(),
            stream,
            pending,
            waiting_tasks: BTreeMap::new(),
            deferred: BTreeMap::new(),
            active: BTreeMap::new(),
            waiting: 0,
            migrate_failures: BTreeMap::new(),
            blocked: 0,
            shed: 0,
            degraded_decisions: 0,
            retries: 0,
            reschedules: 0,
            repairs: 0,
            probe: BandwidthProbe::default(),
            err: None,
            sojourn: LatencyHistogram::new(),
            queueing: LatencyHistogram::new(),
            completed: 0,
            started: 0,
            iter_ms_sum: 0.0,
            task_bw_sum: 0.0,
            overshot: false,
            cfg,
        };
        let mut sim = Simulation::new();
        let reschedule = control.cfg.reschedule.is_some();
        let gated = control.cfg.admission.is_some();
        let check = control.cfg.reschedule_check;
        let id = sim.add_component("replay-control-plane", Box::new(control));
        if let Some((arrival_ns, index)) = first {
            sim.schedule_at(
                SimTime::from_ns(arrival_ns),
                id,
                Event::TaskArrival { index, attempt: 0 },
            );
        }
        for e in faults.events() {
            let ev = if e.down {
                Event::LinkFault { link: e.link }
            } else {
                Event::LinkRepair { link: e.link }
            };
            sim.schedule_at(e.at, id, ev);
        }
        if reschedule {
            sim.schedule_at(check, id, Event::RescheduleCheck);
        }
        if gated {
            sim.schedule_at(check, id, Event::AdmissionReevaluate);
        }

        let (wall_s, covered_s) = run_engine(&mut sim);
        let processed = sim.processed();
        let peak_pending = sim.peak_pending() as u64;
        let control = sim
            .component_mut::<MonoReplay>(id)
            .expect("replay component registered");
        if let Some(e) = control.err.take() {
            return Err(format!("{}: replay failed: {e}", scn.name()));
        }
        let events = processed - u64::from(control.overshot);
        let digest = control.digest(events, peak_pending)?;
        crate::harness::check_drained(&scn, &control.world.db)?;
        Ok(ReplayRun {
            digest,
            wall_s,
            covered_s,
            peak_pending,
        })
    }

    fn digest(&self, events: u64, peak_pending: u64) -> Result<Digest, String> {
        let verdicts = self.admission.as_ref().map_or([0; 3], |c| {
            let a = c.stats();
            [
                a.admitted.iter().sum(),
                a.degraded.iter().sum(),
                a.shed.iter().sum(),
            ]
        });
        let mean_iteration_ms = if self.started > 0 {
            self.iter_ms_sum / self.started as f64
        } else {
            0.0
        };
        Digest::monolithic(
            &self.scn,
            crate::harness::MonoParts {
                completed: self.completed,
                blocked: self.blocked,
                shed: self.shed,
                retries: self.retries,
                events,
                peak_pending,
                sojourn_p50_ns: self.sojourn.quantile(0.50),
                sojourn_p99_ns: self.sojourn.quantile(0.99),
                mean_iteration_ms,
                sum_task_bandwidth_gbps: self.task_bw_sum,
                degraded: self.degraded_decisions,
                reschedules: self.reschedules,
                repairs: self.repairs,
                verdicts,
                groom: self.world.plane.groom_stats(),
                duration_ns: self.probe.last_sample.as_ns(),
                peak_reserved_gbps: self.probe.peak,
                mean_reserved_gbps: self.probe.mean(),
            },
        )
    }

    fn take_arrival(&mut self, index: u64, ctx: &mut SimContext<'_>) -> AiTask {
        let task = self
            .pending
            .take()
            .expect("arrival fired without pending task");
        debug_assert_eq!(task.id.0, index);
        if let Some(t) = layers::next_task(&mut self.stream) {
            ctx.schedule_at(
                SimTime::from_ns(t.arrival_ns),
                ctx.self_id(),
                Event::TaskArrival {
                    index: t.id.0,
                    attempt: 0,
                },
            );
            self.pending = Some(t);
        }
        task
    }

    /// One snapshot -> propose -> commit attempt; `false` = blocked.
    fn try_start(
        &mut self,
        task: &AiTask,
        now: SimTime,
        degrade: bool,
        ctx: &mut SimContext<'_>,
    ) -> OrchResult<bool> {
        let World { db, plane, .. } = &mut self.world;
        let (mut selections, snap) =
            layers::select_and_snapshot(plane, db, &self.cfg.selection, &[task]);
        let selected = selections.pop().expect("one selection per task");
        if selected.is_empty() {
            return Ok(false);
        }
        let scheduler: &dyn Scheduler = if degrade {
            &self.degraded_scheduler
        } else {
            &*self.scheduler
        };
        let proposal = match scheduler.propose(task, &selected, &snap, &mut self.scratch) {
            Ok(p) => p,
            Err(layers::SchedError::Blocked { .. } | layers::SchedError::Unreachable { .. }) => {
                return Ok(false)
            }
            Err(e) => return Err(e.into()),
        };
        let receipt = match layers::commit(plane, db, Intent::admit(&proposal)) {
            Ok(r) => r,
            Err(OrchError::Rejected(_)) => return Ok(false),
            Err(e) => return Err(e),
        };
        let schedule = proposal.schedule;
        let report = layers::evaluate(plane, db, task, &schedule, &self.cfg.transport)?;
        layers::database(|| db.store_schedule(schedule));
        layers::database(|| db.set_phase(task.id, TaskPhase::Running))?;
        ctx.schedule_self_after(
            SimTime::from_ns(report.total_ns()),
            Event::TaskDeparture { task: task.id.0 },
        );
        layers::record(
            &mut self.queueing,
            now.as_ns().saturating_sub(task.arrival_ns),
        );
        self.started += 1;
        self.iter_ms_sum += report.iteration_ms();
        self.task_bw_sum += report.bandwidth_gbps;
        self.active.insert(
            task.id,
            ActiveTask {
                remaining_iterations: task.iterations,
                task: task.clone(),
                groomed: receipt.groomed,
            },
        );
        Ok(true)
    }

    fn decision(
        &mut self,
        task: &AiTask,
        now: SimTime,
        degrade: bool,
        ctx: &mut SimContext<'_>,
    ) -> OrchResult<bool> {
        span(Layer::Decision, || self.try_start(task, now, degrade, ctx))
    }

    fn handle_arrival(
        &mut self,
        index: u64,
        attempt: u32,
        now: SimTime,
        ctx: &mut SimContext<'_>,
    ) -> OrchResult<()> {
        let task = self
            .waiting_tasks
            .get(&index)
            .cloned()
            .ok_or(OrchError::UnknownTask(TaskId(index)))?;
        let Some(gate) = self.admission.as_mut() else {
            if self.decision(&task, now, false, ctx)? {
                self.waiting -= 1;
                self.waiting_tasks.remove(&index);
            } else if attempt >= self.cfg.max_retries {
                self.give_up_waiting(index, false)?;
            } else {
                ctx.schedule_after(
                    self.cfg.retry_backoff,
                    ctx.self_id(),
                    Event::RetryDue {
                        index,
                        attempt: attempt + 1,
                    },
                );
            }
            return Ok(());
        };
        let retry = gate.config().retry;
        let verdict = layers::decide(
            gate,
            task.class,
            now.as_ns(),
            self.waiting.saturating_sub(1),
        );
        let degrade = match verdict {
            Verdict::Shed { retry_after_ns } => {
                let next = now + SimTime::from_ns(retry_after_ns);
                if retry.exhausted(attempt + 1)
                    || retry.past_deadline(task.arrival_ns, next.as_ns())
                {
                    self.give_up_waiting(index, true)?;
                } else {
                    ctx.schedule_at(
                        next,
                        ctx.self_id(),
                        Event::RetryDue {
                            index,
                            attempt: attempt + 1,
                        },
                    );
                }
                return Ok(());
            }
            Verdict::Degrade => {
                self.degraded_decisions += 1;
                true
            }
            Verdict::Admit => false,
        };
        // The driver feeds the decision's host latency to the gate's EWMA
        // (inert here: the latency watermarks are off).
        let decision_started = Instant::now();
        let started = self.decision(&task, now, degrade, ctx)?;
        if let Some(gate) = self.admission.as_mut() {
            gate.observe_decision_latency(decision_started.elapsed().as_nanos() as u64);
        }
        if started {
            self.waiting -= 1;
            self.waiting_tasks.remove(&index);
            return Ok(());
        }
        if retry.exhausted(attempt + 1) {
            return self.give_up_waiting(index, true);
        }
        let next = now + SimTime::from_ns(retry.backoff_ns(task.id, attempt + 1));
        if retry.past_deadline(task.arrival_ns, next.as_ns()) {
            return self.give_up_waiting(index, true);
        }
        ctx.schedule_at(
            next,
            ctx.self_id(),
            Event::RetryDue {
                index,
                attempt: attempt + 1,
            },
        );
        Ok(())
    }

    fn give_up_waiting(&mut self, index: u64, gated: bool) -> OrchResult<()> {
        self.waiting -= 1;
        if gated {
            self.shed += 1;
        } else {
            self.blocked += 1;
        }
        let id = TaskId(index);
        let db = &self.world.db;
        layers::database(|| db.set_phase(id, TaskPhase::Blocked))?;
        self.waiting_tasks.remove(&index);
        layers::unplace(&mut self.mgr, db, id)?;
        layers::database(|| db.forget_task(id));
        Ok(())
    }

    fn finish_task(&mut self, id: TaskId, now: SimTime) -> OrchResult<()> {
        let Some(active) = self.active.remove(&id) else {
            return Ok(());
        };
        let World { db, plane, .. } = &mut self.world;
        if let Some(schedule) = layers::database(|| db.take_schedule(id)) {
            layers::release(plane, db, schedule.task, &active.groomed)?;
        }
        self.migrate_failures.remove(&id);
        layers::unplace(&mut self.mgr, db, id)?;
        layers::record(
            &mut self.sojourn,
            now.as_ns().saturating_sub(active.task.arrival_ns),
        );
        self.completed += 1;
        layers::database(|| db.forget_task(id));
        Ok(())
    }

    fn shed_active(&mut self, id: TaskId) -> OrchResult<()> {
        if let Some(active) = self.active.remove(&id) {
            let World { db, plane, .. } = &mut self.world;
            if let Some(schedule) = layers::database(|| db.take_schedule(id)) {
                layers::release(plane, db, schedule.task, &active.groomed)?;
            }
            layers::database(|| db.set_phase(id, TaskPhase::Blocked))?;
            self.shed += 1;
            self.migrate_failures.remove(&id);
            layers::unplace(&mut self.mgr, db, id)?;
            layers::database(|| db.forget_task(id));
        }
        Ok(())
    }

    fn reschedule_pass(&mut self) -> OrchResult<()> {
        let ids: Vec<TaskId> = self.active.keys().copied().collect();
        self.reschedule_pass_for(&ids)
    }

    fn reschedule_pass_for(&mut self, ids: &[TaskId]) -> OrchResult<()> {
        let Some(policy) = self.cfg.reschedule.clone() else {
            return Ok(());
        };
        for &id in ids {
            if !self.active.contains_key(&id) {
                continue;
            }
            let World { db, plane, .. } = &mut self.world;
            let Some(schedule) = layers::database(|| db.schedule(id)) else {
                continue;
            };
            let (task, remaining) = {
                let a = &self.active[&id];
                (a.task.clone(), a.remaining_iterations)
            };
            let degrade = task.class != ServiceClass::Critical
                && self.admission.as_ref().is_some_and(|c| c.is_degraded());
            let scheduler: &dyn Scheduler = if degrade {
                &self.degraded_scheduler
            } else {
                &*self.scheduler
            };
            let task_policy = if degrade {
                policy.degraded()
            } else {
                policy.clone()
            };
            if degrade {
                self.degraded_decisions += 1;
            }
            let retry_attempts = self.migrate_failures.get(&id).copied().unwrap_or(0);
            let repairs_so_far = layers::database(|| db.repair_count(id));
            let drift_forced = policy
                .resolve_after_repairs
                .is_some_and(|n| repairs_so_far >= n);
            let verdict = layers::consider(
                plane,
                db,
                &task_policy,
                scheduler,
                &task,
                &schedule,
                remaining,
                repairs_so_far,
                retry_attempts,
                &self.cfg.transport,
                &mut self.scratch,
            );
            if drift_forced {
                layers::database(|| db.reset_repairs(id));
            }
            match verdict {
                Ok(RescheduleVerdict::Migrate {
                    new_proposal,
                    repair_delta,
                    ..
                }) => {
                    let intent = match &repair_delta {
                        Some(delta) => Intent::repair(&schedule, &new_proposal, delta),
                        None => Intent::migrate(&schedule, &new_proposal),
                    };
                    if layers::commit(plane, db, intent).is_ok() {
                        layers::database(|| db.store_schedule(new_proposal.schedule));
                        self.reschedules += 1;
                        self.migrate_failures.remove(&id);
                        if repair_delta.is_some() {
                            self.repairs += 1;
                            layers::database(|| db.note_repair(id));
                        } else {
                            layers::database(|| db.reset_repairs(id));
                        }
                    } else {
                        *self.migrate_failures.entry(id).or_insert(0) += 1;
                    }
                }
                Ok(RescheduleVerdict::Shed { .. }) => self.shed_active(id)?,
                Ok(RescheduleVerdict::Keep { .. }) | Err(_) => {}
            }
        }
        Ok(())
    }

    fn anything_in_flight(&self) -> bool {
        !self.active.is_empty()
            || self.waiting > 0
            || !self.deferred.is_empty()
            || self.pending.is_some()
    }

    fn dispatch(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) -> OrchResult<()> {
        match event {
            Event::TaskArrival { index, attempt } => {
                let task = if attempt == 0 {
                    self.take_arrival(index, ctx)
                } else {
                    self.deferred
                        .remove(&index)
                        .expect("deferred arrival re-presented without a stashed task")
                };
                match layers::place(&mut self.mgr, &self.world.db, &task) {
                    Ok(()) => {}
                    Err(OrchError::Compute(_)) => {
                        if attempt < self.cfg.max_retries {
                            self.retries += 1;
                            self.deferred.insert(index, task);
                            ctx.schedule_self_after(
                                self.cfg.retry_backoff,
                                Event::TaskArrival {
                                    index,
                                    attempt: attempt + 1,
                                },
                            );
                        } else {
                            self.blocked += 1;
                        }
                        return Ok(());
                    }
                    Err(e) => return Err(e),
                }
                self.waiting += 1;
                self.waiting_tasks.insert(index, task);
                self.handle_arrival(index, 0, at, ctx)?;
            }
            // A retry can outlive its task (shed or started meanwhile);
            // the driver drops such stale events uncounted.
            Event::RetryDue { index, attempt } if self.waiting_tasks.contains_key(&index) => {
                self.retries += 1;
                self.handle_arrival(index, attempt, at, ctx)?;
            }
            Event::TaskDeparture { task } => self.finish_task(TaskId(task), at)?,
            Event::LinkFault { link } => {
                let World { db, plane, .. } = &self.world;
                layers::set_link_down(plane, db, link, true)?;
                if self.cfg.reschedule.is_some() {
                    let affected = layers::database(|| db.tasks_on_link(link));
                    self.reschedule_pass_for(&affected)?;
                }
            }
            Event::LinkRepair { link } => {
                let World { db, plane, .. } = &self.world;
                layers::set_link_down(plane, db, link, false)?;
                if self.cfg.reschedule.is_some() {
                    self.reschedule_pass()?;
                }
            }
            Event::RescheduleCheck => {
                self.reschedule_pass()?;
                if self.anything_in_flight() {
                    ctx.schedule_after(
                        self.cfg.reschedule_check,
                        ctx.self_id(),
                        Event::RescheduleCheck,
                    );
                }
            }
            Event::AdmissionReevaluate => {
                if let Some(gate) = self.admission.as_ref() {
                    let _ = gate.is_degraded();
                    if self.anything_in_flight() {
                        ctx.schedule_after(
                            self.cfg.reschedule_check,
                            ctx.self_id(),
                            Event::AdmissionReevaluate,
                        );
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

impl Component for MonoReplay {
    fn handle(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) {
        if at > self.cfg.horizon {
            self.overshot = true;
            ctx.halt();
            return;
        }
        trace::set_task(event_subject(&event));
        span(Layer::Handler, || {
            let World { db, plane, .. } = &self.world;
            let reserved = layers::database(|| plane.total_reserved_gbps(db));
            self.probe.sample(reserved, at);
            if let Err(e) = self.dispatch(at, event, ctx) {
                self.err.get_or_insert(e);
                ctx.halt();
            }
        });
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct ActiveStage {
    job: usize,
    sid: u32,
    groomed: Vec<u64>,
}

enum GangOutcome {
    Started(Vec<(TaskId, u64)>),
    Blocked,
    Empty,
}

/// Mirror of the DAG driver's state machine on the simcore engine, for
/// fault-free scenarios (the fault pass is never reached without faults).
pub struct DagReplay {
    scn: Scenario,
    cfg: DagTestbedConfig,
    world: World,
    mgr: AiTaskManager,
    scheduler: Box<dyn Scheduler>,
    scratch: ScratchPool,
    trackers: Vec<JobTracker>,
    pending: Vec<BTreeMap<u32, u64>>,
    active: BTreeMap<TaskId, ActiveStage>,
    reports: Vec<TaskReport>,
    stages_committed: u64,
    gang_commits: u64,
    gang_rejections: u64,
    jobs_completed: u64,
    jobs_shed: u64,
    retries: u64,
    makespan: LatencyHistogram,
    inflation: LatencyHistogram,
    probe: BandwidthProbe,
    err: Option<OrchError>,
}

impl DagReplay {
    /// Run the scenario through the replay. Construction (job stream,
    /// trackers, up-front container placement) is spanned too but sits
    /// outside the returned wall time, as in the real driver.
    pub fn run(scn: Scenario) -> Result<ReplayRun, String> {
        let cfg = scn.dag_config();
        assert_eq!(
            cfg.fault_count, 0,
            "the DAG replay mirrors the fault-free path"
        );
        let world = World::new(layers::backbone(&scn.backbone_params()));
        let mut stream = JobStream::new(&world.topo, &cfg.workload, cfg.dag.clone());
        let mut mgr = AiTaskManager::new();
        let mut trackers = Vec::with_capacity(cfg.dag.num_jobs);
        let mut pending = Vec::with_capacity(cfg.dag.num_jobs);
        while let Some(job) = layers::next_job(&mut stream) {
            for stage in &job.stages {
                layers::place(&mut mgr, &world.db, &stage.task)
                    .map_err(|e| format!("{}: replay placement failed: {e}", scn.name()))?;
            }
            let tracker = JobTracker::new(job);
            pending.push(
                tracker
                    .ready()
                    .into_iter()
                    .map(|s| (s, tracker.release_time(s).expect("roots are released")))
                    .collect(),
            );
            trackers.push(tracker);
        }
        let arrivals: Vec<u64> = trackers.iter().map(|t| t.job().arrival_ns).collect();
        let control = DagReplay {
            scn,
            world,
            mgr,
            scheduler: Box::new(TimedScheduler(scn.scheduler())),
            scratch: ScratchPool::new(),
            trackers,
            pending,
            active: BTreeMap::new(),
            reports: Vec::new(),
            stages_committed: 0,
            gang_commits: 0,
            gang_rejections: 0,
            jobs_completed: 0,
            jobs_shed: 0,
            retries: 0,
            makespan: LatencyHistogram::new(),
            inflation: LatencyHistogram::new(),
            probe: BandwidthProbe::default(),
            err: None,
            cfg,
        };
        let mut sim = Simulation::new();
        let id = sim.add_component("replay-dag-control", Box::new(control));
        for (j, arrival_ns) in arrivals.into_iter().enumerate() {
            sim.schedule_at(
                SimTime::from_ns(arrival_ns),
                id,
                Event::TaskArrival {
                    index: j as u64,
                    attempt: 0,
                },
            );
        }

        let (wall_s, covered_s) = run_engine(&mut sim);
        let events = sim.processed();
        let peak_pending = sim.peak_pending() as u64;
        let control = sim
            .component_mut::<DagReplay>(id)
            .expect("replay component registered");
        if let Some(e) = control.err.take() {
            return Err(format!("{}: replay failed: {e}", scn.name()));
        }
        let digest = control.digest(events)?;
        crate::harness::check_drained(&scn, &control.world.db)?;
        Ok(ReplayRun {
            digest,
            wall_s,
            covered_s,
            peak_pending,
        })
    }

    fn digest(&self, events: u64) -> Result<Digest, String> {
        let (mean_iteration_ms, sum_task_bandwidth_gbps) = layers::aggregate(&self.reports);
        Digest::dag(
            &self.scn,
            crate::harness::DagParts {
                jobs: self.trackers.len() as u64,
                jobs_completed: self.jobs_completed,
                jobs_shed: self.jobs_shed,
                stages_committed: self.stages_committed,
                gang_commits: self.gang_commits,
                gang_rejections: self.gang_rejections,
                retries: self.retries,
                events,
                makespan_p50_ns: self.makespan.quantile(0.50),
                makespan_p99_ns: self.makespan.quantile(0.99),
                inflation_p50_milli: self.inflation.quantile(0.50),
                inflation_p99_milli: self.inflation.quantile(0.99),
                inflation_mean_milli: self.inflation.mean_ns(),
                mean_iteration_ms,
                sum_task_bandwidth_gbps,
                reschedules: 0,
                repairs: 0,
                groom: self.world.plane.groom_stats(),
                duration_ns: self.probe.last_sample.as_ns(),
                peak_reserved_gbps: self.probe.peak,
                mean_reserved_gbps: self.probe.mean(),
            },
        )
    }

    fn try_gang(&mut self, j: usize, now: SimTime) -> OrchResult<GangOutcome> {
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
        let World { db, plane, .. } = &mut self.world;
        let refs: Vec<&AiTask> = tasks.iter().collect();
        let (selections, snap) = layers::select_and_snapshot(plane, db, &self.cfg.selection, &refs);
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
                Err(
                    layers::SchedError::Blocked { .. } | layers::SchedError::Unreachable { .. },
                ) => return Ok(GangOutcome::Blocked),
                Err(e) => return Err(e.into()),
            }
        }
        let gang: Vec<&Proposal> = proposals.iter().collect();
        let receipts = match layers::commit_gang(plane, db, &gang) {
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
            let report = layers::evaluate(plane, db, &task, &schedule, &self.cfg.transport)?;
            let total_ns = report.total_ns();
            layers::database(|| db.store_schedule(schedule));
            layers::database(|| db.set_phase(task.id, TaskPhase::Running))?;
            self.trackers[j].start(sid);
            self.trackers[j].note_ideal_duration(sid, total_ns);
            self.reports.push(report);
            started.push((task.id, total_ns));
            self.active.insert(
                task.id,
                ActiveStage {
                    job: j,
                    sid,
                    groomed: receipt.groomed,
                },
            );
            self.pending[j].remove(&sid);
            self.stages_committed += 1;
        }
        Ok(GangOutcome::Started(started))
    }

    fn shed_job(&mut self, j: usize) {
        if !self.trackers[j].is_shed() {
            self.trackers[j].mark_shed();
            self.pending[j].clear();
            self.jobs_shed += 1;
        }
    }

    fn gang_attempt(
        &mut self,
        j: usize,
        attempt: u32,
        now: SimTime,
        ctx: &mut SimContext<'_>,
    ) -> OrchResult<()> {
        match span(Layer::Decision, || self.try_gang(j, now))? {
            GangOutcome::Started(stages) => {
                for (id, total_ns) in stages {
                    ctx.schedule_self_after(
                        SimTime::from_ns(total_ns),
                        Event::TaskDeparture { task: id.0 },
                    );
                }
            }
            GangOutcome::Blocked => {
                if attempt >= self.cfg.max_retries {
                    self.shed_job(j);
                } else {
                    ctx.schedule_self_after(
                        self.cfg.retry_backoff,
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

    fn finish_stage(&mut self, id: TaskId, now: SimTime) -> OrchResult<Option<(usize, u64)>> {
        let Some(active) = self.active.remove(&id) else {
            return Ok(None);
        };
        let World { db, plane, .. } = &mut self.world;
        if let Some(schedule) = layers::database(|| db.take_schedule(id)) {
            layers::release(plane, db, schedule.task, &active.groomed)?;
        }
        layers::unplace(&mut self.mgr, db, id)?;
        let (j, sid) = (active.job, active.sid);
        let freed = self.trackers[j].complete(sid, now.as_ns());
        if self.trackers[j].is_done() {
            self.jobs_completed += 1;
            if let Some(ms) = self.trackers[j].makespan_ns() {
                layers::record(&mut self.makespan, ms);
            }
            if let Some(inf) = self.trackers[j].inflation_milli() {
                layers::record(&mut self.inflation, inf);
            }
        }
        if freed.is_empty() || self.trackers[j].is_shed() {
            return Ok(None);
        }
        let batch_at = freed.iter().map(|&(_, at)| at).max().expect("non-empty");
        for (s, at) in freed {
            self.pending[j].insert(s, at);
        }
        Ok(Some((j, batch_at)))
    }

    fn dispatch(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) -> OrchResult<()> {
        match event {
            Event::TaskArrival { index, attempt } => {
                self.gang_attempt(index as usize, attempt, at, ctx)?;
            }
            Event::RetryDue { index, attempt } => {
                self.retries += 1;
                self.gang_attempt(index as usize, attempt, at, ctx)?;
            }
            Event::TaskDeparture { task } => {
                if let Some((j, batch_at)) = self.finish_stage(TaskId(task), at)? {
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
            _ => {}
        }
        Ok(())
    }
}

impl Component for DagReplay {
    fn handle(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) {
        trace::set_task(event_subject(&event));
        span(Layer::Handler, || {
            let World { db, plane, .. } = &self.world;
            let reserved = layers::database(|| plane.total_reserved_gbps(db));
            self.probe.sample(reserved, at);
            if let Err(e) = self.dispatch(at, event, ctx) {
                self.err.get_or_insert(e);
                ctx.halt();
            }
        });
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
