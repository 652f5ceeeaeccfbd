//! The monolithic-task testbed: the Figure-2 scenario on the `simcore`
//! engine.
//!
//! The driver runs the shared snapshot → propose → commit pipeline as a
//! component of a [`flexsched_simcore::Simulation`], where *everything* is
//! an event:
//!
//! * arrivals are **self-rescheduling** — handling task *i*'s
//!   [`Event::TaskArrival`] pulls task *i + 1* from the lazy
//!   [`WorkloadStream`] (same RNG streams, byte-identical draws) and
//!   schedules its arrival, so a million-task horizon never materialises a
//!   million-element workload vector;
//! * departures ([`Event::TaskDeparture`]) fire at each task's *actual*
//!   completion time, giving honest per-task time-in-system;
//! * fault storms are [`Event::LinkFault`] / [`Event::LinkRepair`] pairs,
//!   one queue entry per transition;
//! * a running schedule is reconsidered when something that can change
//!   the answer happened to it: a fault reconsiders the tasks on the cut
//!   link and a heal every running task, at the event itself; the periodic
//!   [`Event::RescheduleCheck`] reconsiders a task only once it has
//!   finished an iteration since the check last looked (the moment a
//!   migration can take effect between transfers, and the moment the
//!   iteration count it is priced over changes) or while its schedule
//!   crosses a dead link. Every consideration is priced over the
//!   iterations the task has left, not the count it was admitted with;
//! * the admission gate's `retry_after` verdicts become [`Event::RetryDue`]
//!   entries at exactly the verdict's deadline;
//! * background cross-traffic is a flow per [`Event::TrafficArrival`],
//!   retired at its [`Event::TrafficDeparture`].
//!
//! Per-task sojourn (departure − arrival) and queueing delay (commit −
//! arrival) are recorded into fixed-memory [`LatencyHistogram`]s, so
//! [`RunSummary::sojourn`] carries p50/p99/p999 tails even for runs far too
//! long to retain per-task reports.
//!
//! Containers are placed when a task arrives: a full server defers the
//! arrival by `retry_backoff` (the cluster's back-pressure), so a workload
//! larger than the servers queues instead of aborting the run. A task
//! starts, is reconsidered and leaves through the pipeline's one
//! lifecycle; every exit — departure, give-up, shed — frees its containers
//! and prunes its database records ([`Database::forget_task`]), so
//! resident state scales with *in-flight* tasks and the event heap never
//! holds more than the pending events. The Figure-3 means are accumulated
//! at start. One [`TaskReport`] per started task is kept only by a traced
//! run ([`EventTestbed::run`], or [`EventTestbed::run_detailed`] with
//! `traced`), the one switch whose memory already grows with the run.
//!
//! [`TaskReport`]: flexsched_task::TaskReport

use crate::admission::{AdmissionController, Verdict};
use crate::database::Database;
use crate::pipeline::{seed_faults, Admitted, Pipeline, World};
use crate::scenario::{RunSummary, TestbedConfig};
use crate::{OrchError, Result};
use flexsched_sched::Scheduler;
use flexsched_simcore::{
    Component, ComponentId, Event, LatencyHistogram, SimContext, Simulation, TraceEntry,
};
use flexsched_simnet::fault::FaultSchedule;
use flexsched_simnet::traffic::TrafficGenerator;
use flexsched_simnet::SimTime;
use flexsched_task::{AiTask, TaskId, WorkloadStream};
use flexsched_topo::builders::metro;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The driver's one memory behaviour (module docs). The enum and
/// [`EventTestbed::with_memory_mode`] remain only because the benchmark
/// adapter (`benchmark/src/layers.rs`) names them; both go once that
/// adapter may change (ROADMAP item 1 step B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryMode {
    /// Containers placed at arrival, every per-task record pruned at exit.
    #[default]
    Bounded,
}

/// Per-task sojourn and queueing-delay tails for an event-driven run.
///
/// Sojourn is time-in-system: departure − arrival, including every queueing
/// and retry delay. Queueing delay is commit − arrival: how long the task
/// waited before its schedule was actually installed. Quantiles come from
/// log-bucketed histograms (≤ 1.6% high, never low); means and maxima are
/// exact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SojournStats {
    /// Tasks that completed (departed) within the horizon.
    pub completed: u64,
    /// `completed` per [`ServiceClass`](flexsched_task::ServiceClass),
    /// indexed by its `index()`.
    pub completed_by_class: [u64; 3],
    /// Mean time-in-system, ns.
    pub sojourn_mean_ns: f64,
    /// Median time-in-system, ns.
    pub sojourn_p50_ns: u64,
    /// 99th-percentile time-in-system, ns.
    pub sojourn_p99_ns: u64,
    /// 99.9th-percentile time-in-system, ns.
    pub sojourn_p999_ns: u64,
    /// Worst-case time-in-system, ns (exact).
    pub sojourn_max_ns: u64,
    /// Mean queueing delay (arrival → committed schedule), ns.
    pub queueing_mean_ns: f64,
    /// Median queueing delay, ns.
    pub queueing_p50_ns: u64,
    /// 99th-percentile queueing delay, ns.
    pub queueing_p99_ns: u64,
    /// 99.9th-percentile queueing delay, ns.
    pub queueing_p999_ns: u64,
}

/// Everything an event-driven run produces beyond the [`RunSummary`]:
/// engine-level counters for the memory-bound claims, and the dispatch
/// trace when requested.
#[derive(Debug, Clone)]
pub struct EventRunOutcome {
    /// The scenario summary.
    pub summary: RunSummary,
    /// High-water mark of the event heap — the engine's memory bound.
    pub peak_pending_events: usize,
    /// High-water mark of concurrently running tasks — the bound on the
    /// database's per-task records.
    pub peak_active_tasks: usize,
    /// Full dispatch trace (kind, time, seq, destination); empty unless the
    /// run was started with tracing.
    pub trace: Vec<TraceEntry>,
}

/// The orchestrator control plane as one event handler: admission,
/// snapshot → propose → commit, retries, departures, fault reaction,
/// rescheduling and background traffic.
struct ControlPlane {
    cfg: TestbedConfig,
    pipe: Pipeline,
    admission: Option<AdmissionController>,
    /// The tasks still to arrive, pulled one at a time.
    arrivals: Box<dyn Iterator<Item = AiTask>>,
    /// The one lookahead task whose arrival event is already queued.
    pending: Option<AiTask>,
    /// Tasks that arrived but have not started (retry lookups); its
    /// length is the admission gate's queue-depth signal.
    waiting_tasks: BTreeMap<u64, AiTask>,
    /// Arrivals whose container placement hit a full server; they
    /// re-present after `retry_backoff` (cluster back-pressure).
    deferred: BTreeMap<u64, AiTask>,
    blocked: u32,
    shed: u32,
    retries: u32,
    /// Background cross-traffic, when configured.
    traffic: Option<TrafficGenerator>,
    /// The first failure: handlers can't return `Result`, so it is parked
    /// here and the run halted.
    err: Option<OrchError>,
    sojourn: LatencyHistogram,
    queueing: LatencyHistogram,
    /// Departed tasks per `ServiceClass::index`.
    completed_by_class: [u64; 3],
    peak_active: usize,
}

impl ControlPlane {
    /// A control plane over `arrivals` (in arrival order); the first one
    /// becomes the pending arrival its caller queues. `traced` keeps one
    /// report per started task.
    fn new(
        cfg: TestbedConfig,
        mut pipe: Pipeline,
        mut arrivals: Box<dyn Iterator<Item = AiTask>>,
        traffic: Option<TrafficGenerator>,
        traced: bool,
    ) -> Self {
        if traced {
            pipe.keep_reports();
        }
        ControlPlane {
            admission: cfg.admission.clone().map(AdmissionController::new),
            cfg,
            pipe,
            pending: arrivals.next(),
            arrivals,
            waiting_tasks: BTreeMap::new(),
            deferred: BTreeMap::new(),
            blocked: 0,
            shed: 0,
            retries: 0,
            traffic,
            err: None,
            sojourn: LatencyHistogram::new(),
            queueing: LatencyHistogram::new(),
            completed_by_class: [0; 3],
            peak_active: 0,
        }
    }

    /// Take the pending arrival for `index`, and queue the next task's
    /// arrival event (the self-rescheduling generator step).
    fn take_arrival(&mut self, index: u64, ctx: &mut SimContext<'_>) -> AiTask {
        let task = self
            .pending
            .take()
            .expect("arrival fired without pending task");
        debug_assert_eq!(task.id.0, index);
        self.pending = self.arrivals.next();
        if let Some(t) = &self.pending {
            ctx.schedule_at(
                SimTime::from_ns(t.arrival_ns),
                ctx.self_id(),
                Event::TaskArrival {
                    index: t.id.0,
                    attempt: 0,
                },
            );
        }
        task
    }

    /// Admit the waiting task stored under `index` through the pipeline;
    /// `false` = blocked this attempt. `degrade` routes the decision
    /// through the cheap fixed-tree scheduler (the admission gate's
    /// [`Verdict::Degrade`] path). Completion is a scheduled
    /// [`Event::TaskDeparture`].
    fn try_start(
        &mut self,
        index: u64,
        now: SimTime,
        degrade: bool,
        ctx: &mut SimContext<'_>,
    ) -> Result<bool> {
        let task = &self.waiting_tasks[&index];
        let Admitted::Started(run) = self.pipe.admit(&[task], now, degrade)? else {
            return Ok(false);
        };
        ctx.schedule_self_after(run[0], Event::TaskDeparture { task: task.id.0 });
        self.queueing
            .record(now.as_ns().saturating_sub(task.arrival_ns));
        self.waiting_tasks.remove(&index);
        self.peak_active = self.peak_active.max(self.pipe.running().len());
        Ok(true)
    }

    /// One arrival (or re-presentation) of the task stored under `index`;
    /// `attempt` counts prior tries (0 for the first arrival). Without a
    /// gate: fixed backoff, `max_retries` attempts. With a gate the arrival
    /// first gets a typed verdict, then the gate's
    /// [`flexsched_sched::RetryPolicy`] bounds every failure path —
    /// jittered exponential backoff, a hard attempt budget and a decision
    /// deadline, so no task livelocks through the retry queue. Every "come
    /// back later" is an [`Event::RetryDue`] at the exact deadline.
    fn handle_arrival(
        &mut self,
        index: u64,
        attempt: u32,
        now: SimTime,
        ctx: &mut SimContext<'_>,
    ) -> Result<()> {
        let task = self
            .waiting_tasks
            .get(&index)
            .ok_or(OrchError::UnknownTask(TaskId(index)))?;
        let (id, class, arrival_ns) = (task.id, task.class, task.arrival_ns);
        let retry_due = Event::RetryDue {
            index,
            attempt: attempt + 1,
        };
        let Some(ctrl) = self.admission.as_mut() else {
            if self.try_start(index, now, false, ctx)? {
                return Ok(());
            }
            if attempt >= self.cfg.max_retries {
                return self.give_up_waiting(index, false);
            }
            ctx.schedule_self_after(self.cfg.retry_backoff, retry_due);
            return Ok(());
        };
        let retry = ctrl.config().retry;
        // Queue depth excludes this arrival itself.
        let depth = self.waiting_tasks.len().saturating_sub(1);
        let degrade = match ctrl.decide(class, now.as_ns(), depth) {
            Verdict::Shed { retry_after_ns } => {
                let next = now + SimTime::from_ns(retry_after_ns);
                if retry.exhausted(attempt + 1) || retry.past_deadline(arrival_ns, next.as_ns()) {
                    self.give_up_waiting(index, true)?;
                } else {
                    ctx.schedule_at(next, ctx.self_id(), retry_due);
                }
                return Ok(());
            }
            Verdict::Degrade => true,
            Verdict::Admit => false,
        };
        let decision_started = std::time::Instant::now();
        let started = self.try_start(index, now, degrade, ctx)?;
        if let Some(ctrl) = self.admission.as_mut() {
            ctrl.observe_decision_latency(decision_started.elapsed().as_nanos() as u64);
        }
        if started {
            return Ok(());
        }
        // Transient failure (no capacity, or a rejected commit): back off
        // under the retry policy.
        if retry.exhausted(attempt + 1) {
            return self.give_up_waiting(index, true);
        }
        let next = now + SimTime::from_ns(retry.backoff_ns(id, attempt + 1));
        if retry.past_deadline(arrival_ns, next.as_ns()) {
            return self.give_up_waiting(index, true);
        }
        ctx.schedule_at(next, ctx.self_id(), retry_due);
        Ok(())
    }

    /// Shed a task that never started: retry budget or deadline exhausted.
    /// `gated` picks the counter — `shed` under an admission gate,
    /// `blocked` without one.
    fn give_up_waiting(&mut self, index: u64, gated: bool) -> Result<()> {
        if gated {
            self.shed += 1;
        } else {
            self.blocked += 1;
        }
        self.waiting_tasks.remove(&index);
        self.pipe.retire(TaskId(index)).map(drop)
    }

    /// A task's departure at its actual completion time: retire it and
    /// record its time-in-system. A task shed before its departure left
    /// already.
    fn finish_task(&mut self, id: TaskId, now: SimTime) -> Result<()> {
        if !self.pipe.running().contains_key(&id) {
            return Ok(());
        }
        if let Some(task) = self.pipe.retire(id)? {
            self.sojourn
                .record(now.as_ns().saturating_sub(task.arrival_ns));
            self.completed_by_class[task.class.index()] += 1;
        }
        Ok(())
    }

    /// Reconsider the running tasks of `ids` at `now`: the periodic check
    /// hands in the tasks that are [due](Pipeline::due_for_check), a fault
    /// or heal the tasks [it can affect](Pipeline::link_transition).
    /// Degraded mode applies to non-Critical reconsiderations only.
    fn reschedule_pass(&mut self, ids: &[TaskId], now: SimTime) -> Result<()> {
        let degraded = self.admission.as_ref().is_some_and(|c| c.is_degraded());
        let shed = self.pipe.reschedule_pass(ids, now, degraded)?;
        self.shed += shed.len() as u32;
        Ok(())
    }

    fn anything_in_flight(&self) -> bool {
        !self.pipe.running().is_empty()
            || !self.waiting_tasks.is_empty()
            || !self.deferred.is_empty()
            || self.pending.is_some()
    }

    fn dispatch(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) -> Result<()> {
        match event {
            Event::TaskArrival { index, attempt } => {
                let task = if attempt == 0 {
                    self.take_arrival(index, ctx)
                } else {
                    self.deferred
                        .remove(&index)
                        .expect("deferred arrival re-presented without a stashed task")
                };
                match self.pipe.place(&task) {
                    Ok(()) => {}
                    Err(OrchError::Compute(_)) => {
                        // Cluster back-pressure: no server can hold the
                        // task's containers right now. Re-present the whole
                        // arrival after the retry backoff — departures free
                        // containers, so capacity returns as in-flight
                        // tasks drain.
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
                self.waiting_tasks.insert(index, task);
                self.handle_arrival(index, 0, at, ctx)?;
            }
            Event::RetryDue { index, attempt } => {
                // A retry can outlive its task: anything that removes a
                // waiting task after the retry was enqueued (a shed, a
                // give-up on a parallel path, a replayed/duplicated event)
                // leaves the stale `RetryDue` in the queue. Re-presenting
                // it would double-admit the task or abort the run with
                // `UnknownTask`; drop it without touching the retry
                // counter so the summary only counts real re-presentations.
                if self.waiting_tasks.contains_key(&index) {
                    self.retries += 1;
                    self.handle_arrival(index, attempt, at, ctx)?;
                }
            }
            Event::TaskDeparture { task } => {
                self.finish_task(TaskId(task), at)?;
            }
            // The running schedules a cut or a heal can affect are
            // reconsidered at once.
            Event::LinkFault { link } | Event::LinkRepair { link } => {
                let down = matches!(event, Event::LinkFault { .. });
                let ids = self.pipe.link_transition(link, down)?;
                self.reschedule_pass(&ids, at)?;
            }
            // The tick is a batching quantum, not a poll: only the tasks
            // that are due are reconsidered. Faults and heals are reacted
            // to at their own events, above.
            Event::RescheduleCheck => {
                let due = self.pipe.due_for_check(at);
                self.reschedule_pass(&due, at)?;
                if self.anything_in_flight() {
                    ctx.schedule_self_after(self.cfg.reschedule_check, Event::RescheduleCheck);
                }
            }
            Event::AdmissionReevaluate => {
                // A no-op that re-arms itself: the gate's degrade state
                // moves only inside `decide`, so a degraded gate recovers
                // at the next arrival or retry it decides, not at this
                // prompt (ROADMAP item 6 hole (vii)).
                if self.admission.is_some() && self.anything_in_flight() {
                    ctx.schedule_self_after(self.cfg.reschedule_check, Event::AdmissionReevaluate);
                }
            }
            // A background flow joins the fabric, and the next one is armed.
            Event::TrafficArrival => {
                let Some(gen) = self.traffic.as_mut() else {
                    return Ok(());
                };
                let flow = self.pipe.db.write(|net, _, _| gen.spawn_flow(net))?;
                ctx.schedule_self_after(
                    gen.sample_duration(),
                    Event::TrafficDeparture { flow: flow.id },
                );
                ctx.schedule_self_after(gen.sample_interarrival(), Event::TrafficArrival);
            }
            Event::TrafficDeparture { flow } => {
                if let Some(gen) = self.traffic.as_mut() {
                    self.pipe.db.write(|net, _, _| gen.retire_flow(net, flow))?;
                }
            }
        }
        Ok(())
    }
}

impl Component for ControlPlane {
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

/// The monolithic-task scenario driver. Build with [`EventTestbed::new`],
/// run with [`EventTestbed::run`] (or [`EventTestbed::run_detailed`] for
/// engine counters and a trace).
pub struct EventTestbed {
    cfg: TestbedConfig,
    pipe: Pipeline,
    traffic: Option<TrafficGenerator>,
    faults: FaultSchedule,
    stream: WorkloadStream,
}

impl EventTestbed {
    /// Build a testbed over a metro topology with the given policy.
    pub fn new(cfg: TestbedConfig, scheduler: Box<dyn Scheduler>) -> Self {
        let world = World::new(
            metro(&cfg.metro),
            cfg.fault_count,
            cfg.horizon,
            cfg.mean_repair,
            cfg.fault_seed,
        );
        let stream = WorkloadStream::new(&world.topo, &cfg.workload);
        let traffic = cfg
            .traffic
            .clone()
            .map(|tc| TrafficGenerator::new(tc, Arc::clone(&world.topo)));
        let pipe = Pipeline::new(
            world.db,
            world.plane,
            scheduler,
            cfg.selection,
            cfg.transport.clone(),
            cfg.reschedule.clone(),
        );
        EventTestbed {
            cfg,
            pipe,
            traffic,
            faults: world.faults,
            stream,
        }
    }

    /// Selects nothing: there is one memory behaviour (see [`MemoryMode`]).
    pub fn with_memory_mode(self, _mode: MemoryMode) -> Self {
        self
    }

    /// Read-only access to the shared database (for inspection/tests).
    pub fn database(&self) -> &Database {
        &self.pipe.db
    }

    /// Run the scenario traced and return its summary, which keeps one
    /// [`TaskReport`](flexsched_task::TaskReport) per started task.
    pub fn run(self) -> Result<RunSummary> {
        Ok(self.run_detailed(true)?.summary)
    }

    /// Run the scenario to its horizon. `traced` records the full dispatch
    /// trace (determinism tests compare it across runs) and keeps one
    /// [`TaskReport`](flexsched_task::TaskReport) per started task in
    /// [`RunSummary::reports`]; an untraced run keeps neither, and its
    /// summary is otherwise the same.
    ///
    /// Fails with [`OrchError::ZeroCheckInterval`] when periodic checks are
    /// enabled (`reschedule` or `admission` set) with a zero
    /// `reschedule_check`: they would re-arm at the same instant forever.
    pub fn run_detailed(self, traced: bool) -> Result<EventRunOutcome> {
        let horizon = self.cfg.horizon;
        let (mut sim, control_id) = self.start(traced)?;
        sim.run_until(horizon);
        let events_processed = sim.processed();
        let peak_pending_events = sim.peak_pending();
        let trace = sim.trace().to_vec();
        let control = sim
            .component_mut::<ControlPlane>(control_id)
            .expect("control plane registered");
        if let Some(e) = control.err.take() {
            return Err(e);
        }
        let sojourn = SojournStats {
            completed: control.completed_by_class.iter().sum(),
            completed_by_class: control.completed_by_class,
            sojourn_mean_ns: control.sojourn.mean_ns(),
            sojourn_p50_ns: control.sojourn.quantile(0.50),
            sojourn_p99_ns: control.sojourn.quantile(0.99),
            sojourn_p999_ns: control.sojourn.quantile(0.999),
            sojourn_max_ns: control.sojourn.max_ns(),
            queueing_mean_ns: control.queueing.mean_ns(),
            queueing_p50_ns: control.queueing.quantile(0.50),
            queueing_p99_ns: control.queueing.quantile(0.99),
            queueing_p999_ns: control.queueing.quantile(0.999),
        };
        let summary = RunSummary {
            blocked: control.blocked,
            retries: control.retries,
            shed: control.shed,
            admission: control.admission.take().map(|c| c.stats().clone()),
            sojourn: Some(sojourn),
            ..control.pipe.summary(events_processed)
        };
        Ok(EventRunOutcome {
            summary,
            peak_pending_events,
            peak_active_tasks: control.peak_active,
            trace,
        })
    }

    /// The simulation before its first event, everything that starts it queued.
    fn start(mut self, traced: bool) -> Result<(Simulation, ComponentId)> {
        if self.cfg.reschedule_check == SimTime::ZERO
            && (self.cfg.reschedule.is_some() || self.cfg.admission.is_some())
        {
            return Err(OrchError::ZeroCheckInterval);
        }
        let mut sim = if traced {
            Simulation::with_trace()
        } else {
            Simulation::new()
        };
        let first_traffic = self.traffic.as_mut().map(|gen| gen.sample_interarrival());
        let control = ControlPlane::new(
            self.cfg.clone(),
            self.pipe,
            Box::new(self.stream),
            self.traffic,
            traced,
        );
        let first_arrival = control.pending.as_ref().map(|t| (t.arrival_ns, t.id.0));
        let control_id = sim.add_component("control-plane", Box::new(control));

        // Seed the first arrival; subsequent arrivals self-reschedule.
        if let Some((arrival_ns, index)) = first_arrival {
            sim.schedule_at(
                SimTime::from_ns(arrival_ns),
                control_id,
                Event::TaskArrival { index, attempt: 0 },
            );
        }
        seed_faults(&mut sim, control_id, &self.faults);
        if self.cfg.reschedule.is_some() {
            sim.schedule_at(
                self.cfg.reschedule_check,
                control_id,
                Event::RescheduleCheck,
            );
        }
        if self.cfg.admission.is_some() {
            sim.schedule_at(
                self.cfg.reschedule_check,
                control_id,
                Event::AdmissionReevaluate,
            );
        }
        if let Some(gap) = first_traffic {
            sim.schedule_at(gap, control_id, Event::TrafficArrival);
        }
        Ok((sim, control_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::Counting;
    use flexsched_optical::GroomWork;
    use flexsched_sched::{FixedSpff, FlexibleMst, ReschedulePolicy};
    use flexsched_simnet::traffic::TrafficConfig;
    use flexsched_task::WorkloadConfig;
    use flexsched_topo::algo::SearchWork;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Debug builds check the state invariant every few events: a
    /// reservation no schedule owns, written between two events, fails
    /// the next checked one.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "invariant `reservations` broken after")]
    fn an_unowned_reservation_fails_the_next_checked_event() {
        let tb = EventTestbed::new(quick_cfg(4), Box::new(FlexibleMst::paper()));
        let db = tb.database().clone();
        let (mut sim, _) = tb.start(false).unwrap();
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

    #[test]
    fn scenario_completes_all_tasks() {
        let tb = EventTestbed::new(quick_cfg(5), Box::new(FlexibleMst::paper()));
        let s = tb.run().unwrap();
        assert_eq!(s.reports.len(), 8);
        assert_eq!(s.blocked, 0);
        assert!(s.mean_iteration_ms > 0.0);
        assert!(s.events > 8);
    }

    /// Regression: containers were once placed for every task before the
    /// first event, so a workload larger than the servers aborted with
    /// `ServerFull`. Placed at arrival, 200 tasks on the default metro
    /// queue for servers and all complete, leaving nothing behind.
    #[test]
    fn a_workload_larger_than_the_cluster_completes_instead_of_aborting() {
        let cfg = TestbedConfig {
            workload: WorkloadConfig {
                num_tasks: 200,
                locals_per_task: 4,
                seed: TEST_SEED,
                mean_interarrival_ns: 10_000_000,
                ..WorkloadConfig::default()
            },
            ..TestbedConfig::default()
        };
        let tb = EventTestbed::new(cfg, Box::new(FlexibleMst::paper()));
        let db = tb.database().clone();
        let s = tb.run_detailed(false).unwrap().summary;
        assert_eq!((s.sojourn.unwrap().completed, s.blocked), (200, 0));
        assert_eq!(db.ledger_leftovers(), Vec::<String>::new());
    }

    /// Regression: a task's training time counts only the containers of
    /// tasks in flight beside it, not of tasks that have yet to arrive.
    /// The first task of an eight-task workload trains exactly as it does
    /// alone.
    #[test]
    fn a_task_trains_beside_in_flight_containers_only() {
        let first_report = |num_tasks| {
            let cfg = TestbedConfig {
                workload: WorkloadConfig::seeded_scenario(TEST_SEED, num_tasks, 5),
                ..TestbedConfig::default()
            };
            let s = EventTestbed::new(cfg, Box::new(FlexibleMst::paper()))
                .run()
                .unwrap();
            s.reports[0].clone()
        };
        let (alone, among_eight) = (first_report(1), first_report(8));
        assert_eq!(alone.task, among_eight.task);
        assert_eq!(alone.training_ns, among_eight.training_ns);
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

    /// The link → tasks index's work as a count: one insert or remove per
    /// distinct link each time a schedule is stored, replaced or taken,
    /// on a small fault storm with rescheduling, per scheduler. A change
    /// that moves a count re-pins it with its reason.
    #[test]
    fn a_small_metro_storm_does_pinned_index_work() {
        let index_ops = |scheduler: Box<dyn Scheduler>| {
            let tb = EventTestbed::new(small_storm(), scheduler);
            let db = tb.database().clone();
            assert_eq!(tb.run().unwrap().reports.len(), 8);
            db.index_ops()
        };
        assert_eq!(index_ops(Box::new(FixedSpff)), 348);
        assert_eq!(index_ops(Box::new(FlexibleMst::paper())), 392);
    }

    /// Ten locals, four link faults, rescheduling on.
    fn small_storm() -> TestbedConfig {
        let mut cfg = quick_cfg(10);
        cfg.fault_count = 4;
        cfg.reschedule = Some(ReschedulePolicy::default());
        cfg
    }

    /// The grooming manager's work as counts on the same storm, per
    /// scheduler: chain walks, segment placements, endpoint-index probes,
    /// registry lookups by id, walks rolled back and the placements those
    /// rollbacks undid. A change that moves a count re-pins it with its
    /// reason.
    #[test]
    fn a_small_metro_storm_does_pinned_groom_work() {
        let groom_work = |scheduler: Box<dyn Scheduler>| {
            let summary = EventTestbed::new(small_storm(), scheduler).run().unwrap();
            assert_eq!(summary.reports.len(), 8);
            summary.groom_work
        };
        let work =
            |walks, placements, endpoint_probes, registry_lookups, rollbacks, undone| GroomWork {
                walks,
                placements,
                endpoint_probes,
                registry_lookups,
                rollbacks,
                undone,
            };
        assert_eq!(
            groom_work(Box::new(FixedSpff)),
            work(160, 308, 506, 907, 81, 1)
        );
        assert_eq!(
            groom_work(Box::new(FlexibleMst::paper())),
            work(278, 312, 418, 1134, 28, 2)
        );
    }

    /// The scheduling decisions' work in the pipeline's scratch pool on the
    /// same storm, per scheduler: searches, settles, relaxations, boundary
    /// edges, Steiner solves, the nodes of the trees they built, link
    /// weights priced and terminal-core links. A change that moves a count
    /// re-pins it with its reason.
    #[test]
    fn a_small_metro_storm_does_pinned_search_work() {
        let search_work = |scheduler: Box<dyn Scheduler>| {
            let summary = EventTestbed::new(small_storm(), scheduler).run().unwrap();
            assert_eq!(summary.reports.len(), 8);
            summary.search_work
        };
        let work =
            |[searches, settled, relaxed, boundary_edges]: [u64; 4],
             [solves, tree_nodes, priced, core_links]: [u64; 4]| SearchWork {
                searches,
                settled,
                relaxed,
                boundary_edges,
                solves,
                tree_nodes,
                priced,
                core_links,
            };
        assert_eq!(
            search_work(Box::new(FixedSpff)),
            work([0, 0, 0, 0], [0, 0, 0, 0])
        );
        assert_eq!(
            search_work(Box::new(FlexibleMst::paper())),
            work([188, 4282, 4672, 1222], [94, 2134, 2188, 1168])
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
                // Every reschedule is a full re-solve.
                ReschedulePolicy {
                    prefer_repair: false,
                    ..ReschedulePolicy::default()
                }
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

    /// One ten-iteration task (about 20 ms each) admitted at t = 0 on an
    /// idle metro under the counting paper policy and the default
    /// reschedule policy, checked every 2 ms: the hand-driven control
    /// plane of the cadence tests below.
    struct OneTask {
        sim: Simulation,
        control: flexsched_simcore::ComponentId,
        task: AiTask,
        /// Every scheduler call / the `propose_repair` calls among them.
        calls: Arc<AtomicUsize>,
        repairs: Arc<AtomicUsize>,
    }

    impl OneTask {
        fn new() -> Self {
            let (scheduler, calls, repairs) = Counting::paper();
            let cfg = TestbedConfig {
                reschedule: Some(ReschedulePolicy::default()),
                reschedule_check: SimTime::from_ms(2),
                ..TestbedConfig::default()
            };
            let tb = EventTestbed::new(cfg, Box::new(scheduler));
            let (cfg, pipe) = (tb.cfg, tb.pipe);
            let servers = pipe.db.read(|net, _, _| net.topo().servers());
            let task = AiTask {
                id: TaskId(0),
                model: flexsched_compute::ModelProfile::mobilenet(),
                global_site: servers[0],
                local_sites: servers[1..=4].to_vec(),
                data_utility: Default::default(),
                iterations: 10,
                comm_budget_ms: 10.0,
                arrival_ns: 0,
                class: Default::default(),
            };
            let check = cfg.reschedule_check;
            let arrivals = Box::new(vec![task.clone()].into_iter());
            let control = ControlPlane::new(cfg, pipe, arrivals, None, false);
            let mut sim = Simulation::new();
            let control = sim.add_component("control-plane", Box::new(control));
            let arrival = Event::TaskArrival {
                index: 0,
                attempt: 0,
            };
            sim.schedule_at(SimTime::ZERO, control, arrival);
            sim.schedule_at(check, control, Event::RescheduleCheck);
            OneTask {
                sim,
                control,
                task,
                calls,
                repairs,
            }
        }

        fn plane(&mut self) -> &mut ControlPlane {
            self.sim.component_mut(self.control).unwrap()
        }

        /// Run to `ms`; (scheduler calls, `propose_repair` calls) since
        /// the previous step.
        fn run_to_ms(&mut self, ms: u64) -> (usize, usize) {
            self.sim.run_until(SimTime::from_ms(ms));
            let err = &self.plane().err;
            assert!(err.is_none(), "{err:?}");
            (
                self.calls.swap(0, Ordering::Relaxed),
                self.repairs.swap(0, Ordering::Relaxed),
            )
        }
    }

    /// The periodic check reconsiders a task when it has finished an
    /// iteration since the check last looked, not at every tick: a task
    /// alone on a healthy fabric is re-solved once per iteration boundary.
    #[test]
    fn periodic_check_reconsiders_once_per_finished_iteration() {
        let mut one = OneTask::new();
        assert_eq!(one.run_to_ms(0), (1, 0), "the admission proposes once");
        let id = one.task.id;
        let clock = one.plane().pipe.running()[&id].clock;
        // The first whole millisecond by which `k` iterations are done.
        let boundary_ms = |k: u32| {
            (1..)
                .find(|&ms| clock.completed(SimTime::from_ms(ms)) >= k)
                .unwrap()
        };
        assert!(
            boundary_ms(1) > 14,
            "the scenario needs several 2 ms checks inside an iteration"
        );
        // Every tick inside the first iteration leaves the task alone ...
        assert_eq!(one.run_to_ms(boundary_ms(1) - 1), (0, 0));
        // ... the first one past the boundary reconsiders it, once ...
        assert_eq!(one.run_to_ms(boundary_ms(1) + 2), (1, 0));
        // ... and the rest of the second iteration's ticks do not.
        assert_eq!(one.run_to_ms(boundary_ms(2) - 1), (0, 0));
        // To the departure: one re-solve per boundary, none for the last
        // iteration's end (the task is gone by then).
        let rest = one.run_to_ms(boundary_ms(9) + boundary_ms(1) + 2);
        assert_eq!(rest, (one.task.iterations as usize - 2, 0));
        let plane = one.plane();
        assert_eq!(
            (plane.completed_by_class, plane.pipe.running().len()),
            ([0, 1, 0], 0)
        );

        // A lightly loaded fault-free scenario: no schedule ever crosses a
        // dead link, so all the periodic checks together re-solve at most
        // once per finished iteration (a poll of every running task every
        // 10 ms re-solves about six times an iteration).
        let (scheduler, calls, repairs) = Counting::paper();
        let mut cfg = quick_cfg(4);
        cfg.reschedule = Some(ReschedulePolicy::default());
        let s = EventTestbed::new(cfg, Box::new(scheduler)).run().unwrap();
        assert_eq!((s.reports.len(), s.retries), (8, 0));
        let boundaries: u32 = s.reports.iter().map(|r| r.iterations - 1).sum();
        let resolves = calls.load(Ordering::Relaxed) - s.reports.len();
        assert!(
            0 < resolves && resolves <= boundaries as usize,
            "{resolves} periodic re-solves over {boundaries} iteration boundaries"
        );
        assert_eq!(repairs.load(Ordering::Relaxed), 0);
    }

    /// A task whose schedule crosses a dead link is the exception to the
    /// iteration cadence: it serves nothing, so every check retries it,
    /// and the heal is acted on at the heal event itself. When the dead
    /// link cuts the task's own locals off, each retry is answered
    /// `Unreachable` before the scheduler is asked anything — release
    /// builds make no scheduler call, debug builds make the self-check's
    /// failed repair and failed re-solve.
    #[test]
    fn a_cut_off_task_stays_due_every_tick_without_scheduler_calls() {
        let mut one = OneTask::new();
        let id = one.task.id;
        let site = one.task.local_sites[0];
        let topo = one.plane().pipe.db.read(|net, _, _| net.topo_arc());
        // A server hangs off the fabric by one access link: a bridge no
        // repair or re-solve can route around.
        let access: Vec<_> = topo
            .links()
            .iter()
            .filter(|l| l.a == site || l.b == site)
            .collect();
        assert_eq!(access.len(), 1, "servers are single-homed");
        let access = access[0].id;
        let elsewhere = flexsched_topo::LinkId(
            (0..topo.link_count() as u32)
                .find(|&l| l != access.0)
                .unwrap(),
        );
        one.sim.schedule_at(
            SimTime::from_ms(3),
            one.control,
            Event::LinkFault { link: access },
        );
        one.sim.schedule_at(
            SimTime::from_ms(11),
            one.control,
            Event::LinkRepair { link: access },
        );

        assert_eq!(one.run_to_ms(2), (1, 0), "admission; the 2 ms check idles");
        // The fault event reconsiders the tasks on the cut link at once.
        let cut_calls = if cfg!(debug_assertions) {
            (2, 1)
        } else {
            (0, 0)
        };
        assert_eq!(one.run_to_ms(3), cut_calls);
        for tick_ms in [4, 6, 8, 10] {
            // Traffic moves elsewhere between checks, so no check is
            // answered from the remembered verdict of the previous one.
            let db = one.plane().pipe.db.clone();
            db.write(|net, _, _| {
                net.add_background(
                    flexsched_simnet::DirLink::new(elsewhere, flexsched_topo::Direction::AtoB),
                    0.001,
                )
            })
            .unwrap();
            // Still inside the first iteration, so asking early marks
            // nothing the check itself would not: the task is due only
            // because it is stranded.
            let now = SimTime::from_ms(tick_ms);
            assert_eq!(one.plane().pipe.running()[&id].clock.completed(now), 0);
            assert_eq!(one.plane().pipe.due_for_check(now), [id]);
            assert_eq!(
                one.run_to_ms(tick_ms),
                cut_calls,
                "the check at {tick_ms} ms must retry the stranded task"
            );
        }
        assert!(one.plane().pipe.db.schedule_crosses_dead_link(id));
        // The heal reconsiders every running task at the heal event — no
        // waiting for a boundary (the task is still in its first
        // iteration) or for the next check.
        assert_eq!(one.run_to_ms(11), (1, 0), "one re-solve at the heal");
        assert!(!one.plane().pipe.db.schedule_crosses_dead_link(id));
        let plane = one.plane();
        assert_eq!(
            plane.pipe.running()[&id]
                .clock
                .completed(SimTime::from_ms(14)),
            0
        );
        assert_eq!((plane.pipe.running().len(), plane.shed), (1, 0));
        // Healed and still inside the first iteration: the next check has
        // nothing to do.
        assert_eq!(one.run_to_ms(14), (0, 0));
    }

    /// Fault reaction does not ride on the periodic check: with the check
    /// interval past the horizon no check ever fires, and cut trees are
    /// still repaired — at the fault event.
    #[test]
    fn faults_repair_at_the_fault_event() {
        let mut cfg = quick_cfg_seeded(10, 7);
        cfg.workload.mean_interarrival_ns = 40_000_000;
        cfg.fault_count = 24;
        cfg.mean_repair = SimTime::from_ms(80);
        cfg.reschedule = Some(ReschedulePolicy::default());
        cfg.reschedule_check = cfg.horizon + SimTime::from_secs(1);
        let s = EventTestbed::new(cfg, Box::new(FlexibleMst::paper()))
            .run()
            .unwrap();
        assert_eq!(s.reports.len(), 8);
        assert!(s.repairs > 0, "the storm repaired no tree at its fault");
    }

    /// Regression for the stale-`RetryDue` teardown race: a retry enqueued
    /// for a task that leaves the waiting set before the event fires (shed,
    /// given up, or — as here — already started by an earlier retry) must
    /// be dropped: no double admission, no `UnknownTask` abort, and no
    /// skew of the retry counter.
    #[test]
    fn stale_retry_after_teardown_is_dropped() {
        let tb = EventTestbed::new(TestbedConfig::default(), Box::new(FlexibleMst::paper()));
        let (cfg, pipe, mut stream) = (tb.cfg, tb.pipe, tb.stream);
        let task = stream
            .next()
            .expect("default workload yields at least one task");
        // The task joins the waiting set by hand, so it gets the containers
        // its arrival would have placed.
        pipe.place(&task).unwrap();
        let index = task.id.0;
        let mut control = ControlPlane::new(cfg, pipe, Box::new(std::iter::empty()), None, false);
        control.waiting_tasks.insert(index, task);
        let mut sim = Simulation::new();
        let id = sim.add_component("control-plane", Box::new(control));
        // Two retries for the same task: the first empties the waiting set
        // (the task starts, or gives up); the second fires against a task
        // that is already gone — the stale interleaving.
        sim.schedule_at(
            SimTime::from_ns(10),
            id,
            Event::RetryDue { index, attempt: 1 },
        );
        sim.schedule_at(
            SimTime::from_ns(20),
            id,
            Event::RetryDue { index, attempt: 1 },
        );
        sim.run_until(SimTime::from_secs(1));
        let control = sim.component_mut::<ControlPlane>(id).unwrap();
        assert!(
            control.err.is_none(),
            "stale retry must not abort the run: {:?}",
            control.err
        );
        assert!(control.waiting_tasks.is_empty());
        assert_eq!(control.retries, 1, "only the live retry is counted");
        assert_eq!(
            control.pipe.running().len() as u64
                + control.completed_by_class.iter().sum::<u64>()
                + (control.shed + control.blocked) as u64,
            1,
            "the task started or was dropped exactly once, never twice"
        );
    }

    /// Regression: with periodic checks enabled, a zero `reschedule_check`
    /// re-armed `RescheduleCheck` / `AdmissionReevaluate` at the same
    /// instant for as long as anything was in flight, and the run never
    /// returned. The configuration is rejected up front instead.
    #[test]
    fn zero_check_interval_is_rejected_instead_of_spinning() {
        let cfg = |reschedule, admission| TestbedConfig {
            workload: WorkloadConfig::seeded_scenario(2024, 8, 5),
            reschedule_check: SimTime::ZERO,
            reschedule,
            admission,
            ..TestbedConfig::default()
        };
        let run = |cfg| EventTestbed::new(cfg, Box::new(FlexibleMst::paper())).run();
        for bad in [
            cfg(Some(flexsched_sched::ReschedulePolicy::default()), None),
            cfg(None, Some(crate::AdmissionConfig::default())),
        ] {
            assert_eq!(run(bad).unwrap_err(), OrchError::ZeroCheckInterval);
        }
        // Without periodic checks the interval is never armed.
        assert_eq!(run(cfg(None, None)).unwrap().reports.len(), 8);
    }
}
