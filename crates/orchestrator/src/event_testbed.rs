//! The event-driven testbed: the Figure-2 scenario on the `simcore` engine.
//!
//! The fixed-tick [`Testbed`](crate::Testbed) seeds every arrival up front
//! and polls retries on a fixed backoff; horizons therefore scale with tick
//! count and per-task latencies are per-tick aggregates. This driver ports
//! the same snapshot → propose → commit pipeline onto
//! [`flexsched_simcore::Simulation`], where *everything* is an event:
//!
//! * arrivals are **self-rescheduling** — handling task *i*'s
//!   [`Event::TaskArrival`] pulls task *i + 1* from the lazy
//!   [`WorkloadStream`] (same RNG streams, byte-identical draws) and
//!   schedules its arrival, so a million-task horizon never materialises a
//!   million-element workload vector;
//! * departures ([`Event::TaskDeparture`]) fire at each task's *actual*
//!   completion time, giving honest per-task time-in-system;
//! * fault storms are [`Event::LinkFault`] / [`Event::LinkRepair`] pairs,
//!   one queue entry per transition instead of a polling fault tick;
//! * the admission gate's `retry_after` verdicts become [`Event::RetryDue`]
//!   entries at exactly the verdict's deadline.
//!
//! Per-task sojourn (departure − arrival) and queueing delay (commit −
//! arrival) are recorded into fixed-memory [`LatencyHistogram`]s, so
//! [`RunSummary::sojourn`] carries p50/p99/p999 tails even for runs far too
//! long to retain per-task reports.
//!
//! Two memory modes ([`MemoryMode`]):
//!
//! * [`MemoryMode::Retain`] mirrors the fixed-tick testbed exactly —
//!   containers for every task pre-admitted up front, per-task reports
//!   retained — and is pinned against it by the equivalence test (same
//!   seed + scenario ⇒ identical committed task set and bit-identical
//!   database fingerprint).
//! * [`MemoryMode::Bounded`] admits containers at arrival and prunes all
//!   per-task records at departure ([`Database::forget_task`]), so resident
//!   state scales with *in-flight* tasks and the event heap never holds
//!   more than the pending events — the million-task `horizon_sweep` mode.

use crate::admission::{AdmissionController, Verdict};
use crate::database::{Database, TaskPhase};
use crate::managers::AiTaskManager;
use crate::plane::{CommitPlane, PlaneConfig};
use crate::testbed::{RunSummary, TestbedConfig};
use crate::{OrchError, Result};
use flexsched_compute::server::ResourceRequest;
use flexsched_compute::{ClusterManager, ServerSpec};
use flexsched_optical::OpticalState;
use flexsched_sched::{evaluate_schedule, reschedule, FixedSpff, NetworkSnapshot, Scheduler};
use flexsched_simcore::{Component, Event, LatencyHistogram, SimContext, Simulation, TraceEntry};
use flexsched_simnet::fault::FaultSchedule;
use flexsched_simnet::traffic::TrafficGenerator;
use flexsched_simnet::{NetworkState, SimTime};
use flexsched_task::{AiTask, TaskId, TaskReport, WorkloadStream};
use flexsched_topo::builders::metro;
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Container sizing for the dockerised model replicas (identical to the
/// fixed-tick testbed's pre-admission requests).
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

/// How the event-driven run manages per-task state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryMode {
    /// Mirror the fixed-tick testbed: every task's containers pre-admitted
    /// before the first event, per-task reports retained. This is the mode
    /// the equivalence test pins bit-identical to [`crate::Testbed`].
    #[default]
    Retain,
    /// Bounded-memory long horizons: containers admitted at arrival, every
    /// per-task record pruned at departure, latencies aggregated into
    /// fixed-size histograms. `RunSummary::reports` stays empty; latency
    /// aggregates come from [`RunSummary::sojourn`] and the incremental
    /// iteration/bandwidth accumulators.
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
    /// The scenario summary (same shape as the fixed-tick testbed's).
    pub summary: RunSummary,
    /// High-water mark of the event heap — the engine's memory bound.
    pub peak_pending_events: usize,
    /// High-water mark of concurrently running tasks — the database's
    /// memory bound under [`MemoryMode::Bounded`].
    pub peak_active_tasks: usize,
    /// Full dispatch trace (kind, time, seq, destination); empty unless the
    /// run was started with tracing.
    pub trace: Vec<TraceEntry>,
}

/// Where the next arrival comes from.
enum ArrivalSource {
    /// All tasks materialised up front ([`MemoryMode::Retain`]).
    Materialised { tasks: Vec<AiTask>, next: usize },
    /// Tasks pulled one at a time; `pending` is the single lookahead task
    /// whose arrival event is already queued. The stream is boxed so this
    /// variant stays the same size as the materialised one.
    Streaming {
        stream: Box<WorkloadStream>,
        pending: Option<AiTask>,
    },
}

impl ArrivalSource {
    fn arrivals_remain(&self) -> bool {
        match self {
            ArrivalSource::Materialised { tasks, next } => *next < tasks.len(),
            ArrivalSource::Streaming { pending, .. } => pending.is_some(),
        }
    }
}

struct ActiveTask {
    task: AiTask,
    /// Index into the retained report vec (`None` under `Bounded`).
    report_idx: Option<usize>,
    groomed: Vec<u64>,
    remaining_iterations: u32,
}

/// Time-weighted bandwidth sampling, shared between the control plane and
/// the traffic source so every event samples exactly once — the same
/// piecewise-constant integral the fixed-tick testbed accumulates.
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
}

/// First-error slot shared by all components: handlers can't return
/// `Result`, so the first failure is parked here and the run halted.
type ErrorSlot = Rc<RefCell<Option<OrchError>>>;

/// Background cross-traffic as its own component: spawns a flow per
/// [`Event::TrafficArrival`], retires it at the scheduled
/// [`Event::TrafficDeparture`], and re-arms itself — the generator's seeded
/// RNG streams are consumed in the same order as under the fixed-tick
/// testbed.
struct TrafficSource {
    db: Database,
    gen: TrafficGenerator,
    probe: Rc<RefCell<BandwidthProbe>>,
    err: ErrorSlot,
}

impl TrafficSource {
    fn fail(&self, e: OrchError, ctx: &mut SimContext<'_>) {
        self.err.borrow_mut().get_or_insert(e);
        ctx.halt();
    }
}

impl Component for TrafficSource {
    fn handle(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) {
        // Traffic only runs on the single-lock plane, where the database's
        // own state is authoritative.
        self.probe
            .borrow_mut()
            .sample(self.db.total_reserved_gbps(), at);
        match event {
            Event::TrafficArrival => {
                match self.db.write(|net, _, _| self.gen.spawn_flow(net)) {
                    Ok(flow) => {
                        let dur = self.gen.sample_duration();
                        ctx.schedule_self_after(dur, Event::TrafficDeparture { flow: flow.id });
                    }
                    Err(e) => return self.fail(e.into(), ctx),
                }
                let gap = self.gen.sample_interarrival();
                ctx.schedule_self_after(gap, Event::TrafficArrival);
            }
            Event::TrafficDeparture { flow } => {
                if let Err(e) = self.db.write(|net, _, _| self.gen.retire_flow(net, flow)) {
                    self.fail(e.into(), ctx);
                }
            }
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The orchestrator control plane as one event handler: admission,
/// snapshot → propose → commit, retries, departures, fault reaction and
/// rescheduling.
struct ControlPlane {
    cfg: TestbedConfig,
    mode: MemoryMode,
    db: Database,
    plane: CommitPlane,
    mgr: AiTaskManager,
    scheduler: Box<dyn Scheduler>,
    degraded_scheduler: FixedSpff,
    admission: Option<AdmissionController>,
    scratch: flexsched_topo::algo::ScratchPool,
    source: ArrivalSource,
    /// Tasks that arrived but have not started (retry lookups).
    waiting_tasks: BTreeMap<u64, AiTask>,
    /// `Bounded`-mode arrivals whose lazy container admission hit a full
    /// server; they re-present after `retry_backoff` (cluster
    /// back-pressure, a state legacy pre-admission can never reach).
    deferred: BTreeMap<u64, AiTask>,
    active: BTreeMap<TaskId, ActiveTask>,
    reports: Vec<TaskReport>,
    waiting: usize,
    migrate_failures: BTreeMap<TaskId, u32>,
    blocked: u32,
    shed: u32,
    degraded_decisions: u32,
    retries: u32,
    /// Stale `RetryDue` events dropped because their task already left the
    /// waiting set (shed, given up, or started by another path).
    stale_retries: u64,
    reschedules: u32,
    repairs: u32,
    probe: Rc<RefCell<BandwidthProbe>>,
    err: ErrorSlot,
    sojourn: LatencyHistogram,
    queueing: LatencyHistogram,
    completed: u64,
    peak_active: usize,
    /// Incremental Figure-3 accumulators for `Bounded` mode, filled at
    /// commit time (reports are not retained to re-aggregate later).
    started: u64,
    iter_ms_sum: f64,
    task_bw_sum: f64,
}

impl ControlPlane {
    fn fail(&self, e: OrchError, ctx: &mut SimContext<'_>) {
        self.err.borrow_mut().get_or_insert(e);
        ctx.halt();
    }

    /// Pull the arrival for `index` out of the source, and queue the next
    /// task's arrival event (the self-rescheduling generator step).
    fn take_arrival(&mut self, index: u64, ctx: &mut SimContext<'_>) -> AiTask {
        match &mut self.source {
            ArrivalSource::Materialised { tasks, next } => {
                debug_assert_eq!(*next as u64, index);
                let task = tasks[index as usize].clone();
                *next += 1;
                if let Some(t) = tasks.get(*next) {
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
            ArrivalSource::Streaming { stream, pending } => {
                let task = pending.take().expect("arrival fired without pending task");
                debug_assert_eq!(task.id.0, index);
                if let Some(t) = stream.next() {
                    ctx.schedule_at(
                        SimTime::from_ns(t.arrival_ns),
                        ctx.self_id(),
                        Event::TaskArrival {
                            index: t.id.0,
                            attempt: 0,
                        },
                    );
                    *pending = Some(t);
                }
                task
            }
        }
    }

    /// Snapshot → propose → commit for one waiting task; `false` = blocked
    /// this attempt. Mirrors the fixed-tick testbed's `try_start` except
    /// that completion is a scheduled [`Event::TaskDeparture`].
    fn try_start(
        &mut self,
        task: &AiTask,
        now: SimTime,
        degrade: bool,
        ctx: &mut SimContext<'_>,
    ) -> Result<bool> {
        let (selected, snap) = self.plane.read_state(&self.db, |net, opt, _| {
            (
                self.cfg.selection.select(task, net),
                NetworkSnapshot::capture(net).with_optical(opt),
            )
        });
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
            Err(flexsched_sched::SchedError::Blocked { .. })
            | Err(flexsched_sched::SchedError::Unreachable { .. }) => return Ok(false),
            Err(e) => return Err(e.into()),
        };
        let receipt = match self.plane.apply(&self.db, crate::Intent::admit(&proposal)) {
            Ok(r) => r,
            Err(OrchError::Rejected(_)) => return Ok(false),
            Err(e) => return Err(e),
        };
        let schedule = proposal.schedule;
        let report = {
            let transport = &self.cfg.transport;
            self.plane.read_state(&self.db, |net, _, cluster| {
                evaluate_schedule(task, &schedule, net, cluster, transport)
            })?
        };
        let groomed = receipt.groomed;
        self.db.store_schedule(schedule);
        self.db.set_phase(task.id, TaskPhase::Running)?;
        let total = SimTime::from_ns(report.total_ns());
        ctx.schedule_self_after(total, Event::TaskDeparture { task: task.id.0 });
        self.queueing
            .record(now.as_ns().saturating_sub(task.arrival_ns));
        self.started += 1;
        let report_idx = match self.mode {
            MemoryMode::Retain => {
                let idx = self.reports.len();
                self.reports.push(report);
                Some(idx)
            }
            MemoryMode::Bounded => {
                self.iter_ms_sum += report.iteration_ms();
                self.task_bw_sum += report.bandwidth_gbps;
                None
            }
        };
        self.active.insert(
            task.id,
            ActiveTask {
                remaining_iterations: task.iterations,
                task: task.clone(),
                report_idx,
                groomed,
            },
        );
        self.peak_active = self.peak_active.max(self.active.len());
        Ok(true)
    }

    /// One arrival or re-presentation of the task stored under `index`.
    /// Identical decision logic to the fixed-tick testbed, except that
    /// every "come back later" is a [`Event::RetryDue`] scheduled at the
    /// exact deadline instead of a next-tick poll.
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
            .cloned()
            .ok_or(OrchError::UnknownTask(TaskId(index)))?;
        let Some(ctrl) = self.admission.as_mut() else {
            if self.try_start(&task, now, false, ctx)? {
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
        let retry = ctrl.config().retry;
        // Queue depth excludes this arrival itself.
        let verdict = ctrl.decide(task.class, now.as_ns(), self.waiting.saturating_sub(1));
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
        let decision_started = std::time::Instant::now();
        let started = self.try_start(&task, now, degrade, ctx)?;
        if let Some(ctrl) = self.admission.as_mut() {
            ctrl.observe_decision_latency(decision_started.elapsed().as_nanos() as u64);
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

    /// Shed a task that never started (`gated` picks the counter, matching
    /// the fixed-tick split between `blocked` and `shed`).
    fn give_up_waiting(&mut self, index: u64, gated: bool) -> Result<()> {
        self.waiting -= 1;
        if gated {
            self.shed += 1;
        } else {
            self.blocked += 1;
        }
        let id = TaskId(index);
        self.db.set_phase(id, TaskPhase::Blocked)?;
        self.waiting_tasks.remove(&index);
        if self.mode == MemoryMode::Bounded {
            // Bounded mode placed this task's containers at arrival; a
            // task that never starts must free them on the way out or the
            // cluster (and the manager's container map) leak capacity for
            // the rest of the horizon.
            self.mgr.complete(&self.db, id)?;
            self.db.forget_task(id);
        }
        Ok(())
    }

    /// Shed a *running* task whose reschedule retry budget is exhausted.
    fn shed_active(&mut self, id: TaskId) -> Result<()> {
        if let Some(active) = self.active.remove(&id) {
            if let Some(schedule) = self.db.take_schedule(id) {
                self.plane
                    .release(&self.db, schedule.task, &active.groomed)?;
            }
            self.db.set_phase(id, TaskPhase::Blocked)?;
            self.shed += 1;
            self.migrate_failures.remove(&id);
            if self.mode == MemoryMode::Bounded {
                self.mgr.complete(&self.db, id)?;
                self.db.forget_task(id);
            }
        }
        Ok(())
    }

    /// A task's departure at its actual completion time: release resources,
    /// record its time-in-system, and (in `Bounded` mode) prune every trace
    /// of it from the database.
    fn finish_task(&mut self, id: TaskId, now: SimTime) -> Result<()> {
        let Some(active) = self.active.remove(&id) else {
            return Ok(());
        };
        if let Some(schedule) = self.db.take_schedule(id) {
            self.plane
                .release(&self.db, schedule.task, &active.groomed)?;
        }
        // A task that lost a migrate race earlier must not leave its retry
        // tally behind after departing — in `Bounded` mode that map must
        // stay bounded by *in-flight* tasks, like the database ledger.
        self.migrate_failures.remove(&id);
        self.mgr.complete(&self.db, id)?;
        self.sojourn
            .record(now.as_ns().saturating_sub(active.task.arrival_ns));
        self.completed += 1;
        if self.mode == MemoryMode::Bounded {
            self.db.forget_task(id);
        }
        Ok(())
    }

    /// Re-evaluate retained reports against current conditions (fault
    /// reaction; no-op in `Bounded` mode, which retains none).
    fn refresh_reports(&mut self) -> Result<()> {
        if self.mode == MemoryMode::Bounded {
            return Ok(());
        }
        let ids: Vec<TaskId> = self.active.keys().copied().collect();
        for id in ids {
            let Some(schedule) = self.db.schedule(id) else {
                continue;
            };
            let (task, idx) = {
                let a = &self.active[&id];
                (a.task.clone(), a.report_idx)
            };
            let transport = &self.cfg.transport;
            let fresh = self.plane.read_state(&self.db, |net, _, cluster| {
                evaluate_schedule(&task, &schedule, net, cluster, transport)
            });
            if let (Ok(mut fresh), Some(slot)) = (fresh, idx.and_then(|i| self.reports.get_mut(i)))
            {
                fresh.reschedules = slot.reschedules;
                *slot = fresh;
            }
        }
        Ok(())
    }

    fn reschedule_pass(&mut self) -> Result<()> {
        let ids: Vec<TaskId> = self.active.keys().copied().collect();
        self.reschedule_pass_for(&ids)
    }

    /// Reconsider the schedules of `ids` only — identical policy logic to
    /// the fixed-tick testbed (fault blast radius from the link → tasks
    /// reverse index, repair-drift guard, degraded-mode routing).
    fn reschedule_pass_for(&mut self, ids: &[TaskId]) -> Result<()> {
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
            let degrade = task.class != flexsched_task::ServiceClass::Critical
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
            let scratch = &mut self.scratch;
            let repairs_so_far = self.db.repair_count(id);
            let drift_forced = policy
                .resolve_after_repairs
                .is_some_and(|n| repairs_so_far >= n);
            let verdict = self.plane.read_state(&self.db, |net, opt, cluster| {
                reschedule::consider(
                    &task_policy,
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
                    let committed = self.plane.apply(&self.db, intent).is_ok();
                    if committed {
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
                        if let Some(r) = self.active[&id]
                            .report_idx
                            .and_then(|i| self.reports.get_mut(i))
                        {
                            r.reschedules += 1;
                        }
                    } else {
                        *self.migrate_failures.entry(id).or_insert(0) += 1;
                    }
                }
                Ok(reschedule::RescheduleVerdict::Shed { .. }) => {
                    self.shed_active(id)?;
                }
                Ok(reschedule::RescheduleVerdict::Keep { .. }) => {}
                Err(_) => {}
            }
        }
        Ok(())
    }

    fn anything_in_flight(&self) -> bool {
        !self.active.is_empty()
            || self.waiting > 0
            || !self.deferred.is_empty()
            || self.source.arrivals_remain()
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
                if self.mode == MemoryMode::Bounded {
                    match self.mgr.admit_with(&self.db, &task, GLOBAL_REQ, LOCAL_REQ) {
                        Ok(()) => {}
                        Err(OrchError::Compute(_)) => {
                            // Cluster back-pressure: no server can hold the
                            // task's containers right now. Re-present the
                            // whole arrival after the retry backoff —
                            // departures free containers, so capacity
                            // returns as in-flight tasks drain.
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
                }
                self.waiting += 1;
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
                } else {
                    self.stale_retries += 1;
                }
            }
            Event::TaskDeparture { task } => {
                self.finish_task(TaskId(task), at)?;
            }
            Event::LinkFault { link } => {
                self.plane.set_link_down(&self.db, link, true)?;
                self.refresh_reports()?;
                if self.cfg.reschedule.is_some() {
                    // Repair-first: only schedules crossing the cut link.
                    let affected = self.db.tasks_on_link(link);
                    self.reschedule_pass_for(&affected)?;
                    self.refresh_reports()?;
                }
            }
            Event::LinkRepair { link } => {
                self.plane.set_link_down(&self.db, link, false)?;
                self.refresh_reports()?;
                if self.cfg.reschedule.is_some() {
                    // A healed link is an opportunity for any task: widen
                    // the pass back to every active schedule.
                    self.reschedule_pass()?;
                    self.refresh_reports()?;
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
                // The gate's degrade state is updated by the decisions
                // themselves; this periodic prompt only keeps the gate's
                // clock moving through idle stretches so a quiet system
                // exits degraded mode without waiting for the next arrival.
                if let Some(ctrl) = self.admission.as_mut() {
                    let _ = ctrl.is_degraded();
                    if self.anything_in_flight() {
                        ctx.schedule_after(
                            self.cfg.reschedule_check,
                            ctx.self_id(),
                            Event::AdmissionReevaluate,
                        );
                    }
                }
            }
            // Traffic events belong to the TrafficSource component; soft
            // failures and background load are faultstorm-replay payloads.
            _ => {}
        }
        Ok(())
    }
}

impl Component for ControlPlane {
    fn handle(&mut self, at: SimTime, event: Event, ctx: &mut SimContext<'_>) {
        let reserved = self.plane.total_reserved_gbps(&self.db);
        self.probe.borrow_mut().sample(reserved, at);
        if let Err(e) = self.dispatch(at, event, ctx) {
            self.fail(e, ctx);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The event-driven scenario driver. Build with [`EventTestbed::new`], run
/// with [`EventTestbed::run`] (or [`EventTestbed::run_detailed`] for engine
/// counters and a trace).
pub struct EventTestbed {
    cfg: TestbedConfig,
    mode: MemoryMode,
    db: Database,
    plane: CommitPlane,
    scheduler: Box<dyn Scheduler>,
    traffic: Option<TrafficGenerator>,
    faults: FaultSchedule,
    stream: WorkloadStream,
}

impl EventTestbed {
    /// Build an event-driven testbed over a metro topology with the given
    /// policy (the same scenario surface as [`crate::Testbed::new`]).
    pub fn new(cfg: TestbedConfig, scheduler: Box<dyn Scheduler>) -> Self {
        let topo = Arc::new(metro(&cfg.metro));
        let network = NetworkState::new(Arc::clone(&topo));
        let optical = OpticalState::new(Arc::clone(&topo));
        let cluster = ClusterManager::from_topology(&topo, ServerSpec::default());
        let db = Database::new(network, optical, cluster);
        let stream = WorkloadStream::new(&topo, &cfg.workload);
        let traffic = cfg
            .traffic
            .clone()
            .map(|tc| TrafficGenerator::new(tc, Arc::clone(&topo)));
        let faults = if cfg.fault_count > 0 {
            FaultSchedule::random(
                &topo,
                cfg.fault_count,
                cfg.horizon,
                cfg.mean_repair,
                cfg.fault_seed,
            )
        } else {
            FaultSchedule::new()
        };
        let plane = CommitPlane::new(PlaneConfig::Single, &topo);
        EventTestbed {
            cfg,
            mode: MemoryMode::default(),
            db,
            plane,
            scheduler,
            traffic,
            faults,
            stream,
        }
    }

    /// Select the memory mode (default [`MemoryMode::Retain`]).
    pub fn with_memory_mode(mut self, mode: MemoryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Read-only access to the shared database (for inspection/tests).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Run the scenario; convenience wrapper over
    /// [`EventTestbed::run_detailed`] returning just the summary.
    pub fn run(self) -> Result<RunSummary> {
        Ok(self.run_detailed(false)?.summary)
    }

    /// Run the scenario to its horizon. `traced` records the full dispatch
    /// trace (determinism tests compare it across runs).
    pub fn run_detailed(mut self, traced: bool) -> Result<EventRunOutcome> {
        let mut sim = if traced {
            Simulation::with_trace()
        } else {
            Simulation::new()
        };
        let probe = Rc::new(RefCell::new(BandwidthProbe::default()));
        let err: ErrorSlot = Rc::new(RefCell::new(None));
        // Arrival source: Retain materialises and pre-admits every task's
        // containers up front (the fixed-tick testbed's world, so the
        // equivalence test compares like with like); Bounded keeps the lazy
        // stream with a one-task lookahead.
        let mut mgr = AiTaskManager::new();
        let (source, first_arrival) = match self.mode {
            MemoryMode::Retain => {
                let tasks: Vec<AiTask> = self.stream.collect();
                for t in &tasks {
                    mgr.admit_with(&self.db, t, GLOBAL_REQ, LOCAL_REQ)?;
                }
                let first = tasks.first().map(|t| (t.arrival_ns, t.id.0));
                (ArrivalSource::Materialised { tasks, next: 0 }, first)
            }
            MemoryMode::Bounded => {
                let pending = self.stream.next();
                let first = pending.as_ref().map(|t| (t.arrival_ns, t.id.0));
                (
                    ArrivalSource::Streaming {
                        stream: Box::new(self.stream),
                        pending,
                    },
                    first,
                )
            }
        };

        let control = ControlPlane {
            mode: self.mode,
            db: self.db.clone(),
            plane: self.plane,
            mgr,
            degraded_scheduler: FixedSpff,
            admission: self.cfg.admission.clone().map(AdmissionController::new),
            scratch: flexsched_topo::algo::ScratchPool::new(),
            source,
            waiting_tasks: BTreeMap::new(),
            deferred: BTreeMap::new(),
            active: BTreeMap::new(),
            reports: Vec::new(),
            waiting: 0,
            migrate_failures: BTreeMap::new(),
            blocked: 0,
            shed: 0,
            degraded_decisions: 0,
            retries: 0,
            stale_retries: 0,
            reschedules: 0,
            repairs: 0,
            probe: Rc::clone(&probe),
            err: Rc::clone(&err),
            sojourn: LatencyHistogram::new(),
            queueing: LatencyHistogram::new(),
            completed: 0,
            peak_active: 0,
            started: 0,
            iter_ms_sum: 0.0,
            task_bw_sum: 0.0,
            scheduler: self.scheduler,
            cfg: self.cfg.clone(),
        };
        let control_id = sim.add_component("control-plane", Box::new(control));

        // Seed the first arrival; subsequent arrivals self-reschedule.
        if let Some((arrival_ns, index)) = first_arrival {
            sim.schedule_at(
                SimTime::from_ns(arrival_ns),
                control_id,
                Event::TaskArrival { index, attempt: 0 },
            );
        }
        // Fault storms: one event per transition, scheduled up front.
        for e in self.faults.events() {
            let ev = if e.down {
                Event::LinkFault { link: e.link }
            } else {
                Event::LinkRepair { link: e.link }
            };
            sim.schedule_at(e.at, control_id, ev);
        }
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
        // Background traffic is its own component sharing the database.
        if let Some(mut gen) = self.traffic.take() {
            let gap = gen.sample_interarrival();
            let traffic_id = sim.add_component(
                "traffic-source",
                Box::new(TrafficSource {
                    db: self.db.clone(),
                    gen,
                    probe: Rc::clone(&probe),
                    err: Rc::clone(&err),
                }),
            );
            sim.schedule_at(gap, traffic_id, Event::TrafficArrival);
        }

        sim.run_until(self.cfg.horizon);
        if let Some(e) = err.borrow_mut().take() {
            return Err(e);
        }

        let events_processed = sim.processed();
        let peak_pending_events = sim.peak_pending();
        let trace = sim.trace().to_vec();
        let control = sim
            .component_mut::<ControlPlane>(control_id)
            .expect("control plane registered");
        let probe = probe.borrow();
        let duration = probe.last_sample;
        let mean_reserved_gbps = if duration > SimTime::ZERO {
            probe.integral / duration.as_ns() as f64
        } else {
            0.0
        };
        let (mean_iteration_ms, sum_task_bandwidth_gbps) = match self.mode {
            MemoryMode::Retain => flexsched_task::report::aggregate(&control.reports),
            MemoryMode::Bounded => (
                if control.started > 0 {
                    control.iter_ms_sum / control.started as f64
                } else {
                    0.0
                },
                control.task_bw_sum,
            ),
        };
        let (groom_reuse_hits, groom_new_lights) = control.plane.groom_stats();
        let sojourn = SojournStats {
            completed: control.completed,
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
            scheduler: control.scheduler.name().to_string(),
            blocked: control.blocked,
            retries: control.retries,
            reschedules: control.reschedules,
            repairs: control.repairs,
            peak_reserved_gbps: probe.peak,
            mean_reserved_gbps,
            sum_task_bandwidth_gbps,
            mean_iteration_ms,
            groom_reuse_hits,
            groom_new_lights,
            duration,
            events: events_processed,
            shed: control.shed,
            degraded_decisions: control.degraded_decisions,
            admission: control.admission.take().map(|c| c.stats().clone()),
            sojourn: Some(sojourn),
            dag: None,
            reports: std::mem::take(&mut control.reports),
        };
        let peak_active_tasks = control.peak_active;
        Ok(EventRunOutcome {
            summary,
            peak_pending_events,
            peak_active_tasks,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_sched::FlexibleMst;

    /// Regression for the stale-`RetryDue` teardown race: a retry enqueued
    /// for a task that leaves the waiting set before the event fires (shed,
    /// given up, or — as here — already started by an earlier retry) must
    /// be dropped: no double admission, no `UnknownTask` abort, and no
    /// skew of the retry counter.
    #[test]
    fn stale_retry_after_teardown_is_dropped() {
        let cfg = TestbedConfig::default();
        let topo = Arc::new(metro(&cfg.metro));
        let db = Database::new(
            NetworkState::new(Arc::clone(&topo)),
            OpticalState::new(Arc::clone(&topo)),
            ClusterManager::from_topology(&topo, ServerSpec::default()),
        );
        let mut mgr = AiTaskManager::new();
        let task = WorkloadStream::new(&topo, &cfg.workload)
            .next()
            .expect("default workload yields at least one task");
        mgr.admit_with(&db, &task, GLOBAL_REQ, LOCAL_REQ).unwrap();
        let index = task.id.0;
        let err: ErrorSlot = Rc::new(RefCell::new(None));
        let probe = Rc::new(RefCell::new(BandwidthProbe::default()));
        let mut waiting_tasks = BTreeMap::new();
        waiting_tasks.insert(index, task);
        let control = ControlPlane {
            cfg,
            mode: MemoryMode::Bounded,
            db,
            plane: CommitPlane::new(PlaneConfig::Single, &topo),
            mgr,
            scheduler: Box::new(FlexibleMst::paper()),
            degraded_scheduler: FixedSpff,
            admission: None,
            scratch: flexsched_topo::algo::ScratchPool::new(),
            source: ArrivalSource::Materialised {
                tasks: Vec::new(),
                next: 0,
            },
            waiting_tasks,
            deferred: BTreeMap::new(),
            active: BTreeMap::new(),
            reports: Vec::new(),
            waiting: 1,
            migrate_failures: BTreeMap::new(),
            blocked: 0,
            shed: 0,
            degraded_decisions: 0,
            retries: 0,
            stale_retries: 0,
            reschedules: 0,
            repairs: 0,
            probe: Rc::clone(&probe),
            err: Rc::clone(&err),
            sojourn: LatencyHistogram::new(),
            queueing: LatencyHistogram::new(),
            completed: 0,
            peak_active: 0,
            started: 0,
            iter_ms_sum: 0.0,
            task_bw_sum: 0.0,
        };
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
        assert!(
            err.borrow().is_none(),
            "stale retry must not abort the run: {:?}",
            err.borrow()
        );
        let control = sim.component_mut::<ControlPlane>(id).unwrap();
        assert!(control.waiting_tasks.is_empty());
        assert_eq!(control.retries, 1, "only the live retry is counted");
        assert_eq!(control.stale_retries, 1, "the duplicate is dropped");
        assert_eq!(
            control.active.len() as u64
                + control.completed
                + (control.shed + control.blocked) as u64,
            1,
            "the task started or was dropped exactly once, never twice"
        );
    }
}
