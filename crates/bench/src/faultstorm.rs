//! Fault-storm worlds: the shared driver behind the repair-vs-resolve
//! differential harness and the BENCH blocking-probability points.
//!
//! A [`World`] is a live control plane (database + committer + scheduler)
//! with a population of committed tasks, stepped through a deterministic
//! [`StormEvent`] sequence. Two worlds built from the same seed see
//! identical admissions and identical events; the only divergence is the
//! rescheduling [`Mode`]:
//!
//! * [`Mode::Repair`] — incremental tree repair first (speculated against
//!   one per-step snapshot, committed through the strict migration gate,
//!   recomputed under a bounded [`RetryPolicy`] on rejection), full
//!   re-solve as the fallback.
//! * [`Mode::Resolve`] — the pre-repair policy: every affected task is
//!   fully re-solved and migrated through the fit-checked gate.
//!
//! The differential test (`tests/repair_differential.rs`) steps both worlds
//! in lockstep and pins: repaired schedules are feasible against live
//! state, the repair world serves no fewer tasks than the resolve world
//! (minus a bounded gap), and rejected repairs leave the database
//! bit-identical.

use flexsched_compute::{ClusterManager, ServerSpec};
use flexsched_optical::{softfail, OpticalState, SoftFailure};
use flexsched_orchestrator::{Committer, Database, Intent, OrchError};
use flexsched_sched::{
    reschedule, FlexibleMst, NetworkSnapshot, Proposal, ReschedulePolicy, RetryPolicy, Scheduler,
};
use flexsched_simnet::Transport;
use flexsched_simnet::{DirLink, NetworkState};
use flexsched_task::{generate_workload, AiTask, TaskId, WorkloadConfig, PRODUCTION_CLASS_MIX};
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::{builders, Direction, LinkId, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Which rescheduling policy a world runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Incremental repair first, full re-solve as fallback.
    Repair,
    /// Full re-solve for every affected task (the pre-repair baseline).
    Resolve,
}

/// The storm topologies the harness replays on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormTopology {
    /// The paper's metro testbed (WDM ring + access).
    Metro,
    /// A spine-leaf fabric.
    SpineLeaf,
}

impl StormTopology {
    /// Build the topology.
    pub fn build(self) -> Arc<Topology> {
        match self {
            StormTopology::Metro => Arc::new(builders::metro(&builders::MetroParams::default())),
            StormTopology::SpineLeaf => Arc::new(builders::spine_leaf(3, 8, 3, true, 400.0)),
        }
    }
}

/// One storm transition. Sequences are generated up front from a seed so
/// two worlds replay bit-identical histories.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StormEvent {
    /// Hard fault: the link goes down.
    LinkDown(LinkId),
    /// Repair crew: a downed link comes back.
    LinkUp(LinkId),
    /// Background load lands on one direction of a link.
    LoadAdd(DirLink, f64),
    /// Background load drains again.
    LoadRemove(DirLink, f64),
    /// Optical soft failure: the top wavelengths of a fiber degrade.
    SoftFail(SoftFailure),
    /// The soft failure heals.
    Heal(SoftFailure),
}

impl StormEvent {
    /// The physical link this event touches.
    pub fn link(&self) -> LinkId {
        match self {
            StormEvent::LinkDown(l) | StormEvent::LinkUp(l) => *l,
            StormEvent::LoadAdd(dl, _) | StormEvent::LoadRemove(dl, _) => dl.link,
            StormEvent::SoftFail(f) | StormEvent::Heal(f) => f.link,
        }
    }

    /// Whether this event can only degrade running schedules (faults and
    /// load arrivals) as opposed to opening capacity back up.
    pub fn is_degradation(&self) -> bool {
        matches!(
            self,
            StormEvent::LinkDown(_) | StormEvent::LoadAdd(..) | StormEvent::SoftFail(_)
        )
    }

    /// Lossless mapping onto the `flexsched-simcore` event vocabulary.
    /// Every payload field survives the round trip ([`Self::from_sim_event`]
    /// inverts this exactly): load rates travel as `f64::to_bits` and
    /// soft-failure severity as the raw wavelength count, so a replayed
    /// storm is bit-identical to the direct one.
    pub fn to_sim_event(&self) -> flexsched_simcore::Event {
        use flexsched_simcore::Event;
        match *self {
            StormEvent::LinkDown(link) => Event::LinkFault { link },
            StormEvent::LinkUp(link) => Event::LinkRepair { link },
            StormEvent::LoadAdd(dl, gbps) => Event::BackgroundLoad {
                link: dl.link,
                a_to_b: dl.dir == Direction::AtoB,
                gbps_bits: gbps.to_bits(),
                add: true,
            },
            StormEvent::LoadRemove(dl, gbps) => Event::BackgroundLoad {
                link: dl.link,
                a_to_b: dl.dir == Direction::AtoB,
                gbps_bits: gbps.to_bits(),
                add: false,
            },
            StormEvent::SoftFail(f) => Event::OpticalSoftFail {
                link: f.link,
                severity: f.severity,
                heal: false,
            },
            StormEvent::Heal(f) => Event::OpticalSoftFail {
                link: f.link,
                severity: f.severity,
                heal: true,
            },
        }
    }

    /// Inverse of [`Self::to_sim_event`]. `None` for simcore events outside
    /// the storm vocabulary (task/traffic/control events).
    pub fn from_sim_event(ev: &flexsched_simcore::Event) -> Option<StormEvent> {
        use flexsched_simcore::Event;
        Some(match *ev {
            Event::LinkFault { link } => StormEvent::LinkDown(link),
            Event::LinkRepair { link } => StormEvent::LinkUp(link),
            Event::BackgroundLoad {
                link,
                a_to_b,
                gbps_bits,
                add,
            } => {
                let dl = DirLink::new(
                    link,
                    if a_to_b {
                        Direction::AtoB
                    } else {
                        Direction::BtoA
                    },
                );
                let gbps = f64::from_bits(gbps_bits);
                if add {
                    StormEvent::LoadAdd(dl, gbps)
                } else {
                    StormEvent::LoadRemove(dl, gbps)
                }
            }
            Event::OpticalSoftFail {
                link,
                severity,
                heal,
            } => {
                let f = SoftFailure { link, severity };
                if heal {
                    StormEvent::Heal(f)
                } else {
                    StormEvent::SoftFail(f)
                }
            }
            _ => return None,
        })
    }
}

/// A [`World`] mounted as a simcore component: scheduled fault / load /
/// soft-fail events are decoded back into [`StormEvent`]s and stepped
/// through the live control plane.
///
/// The differential harness (`tests/repair_differential.rs`) deliberately
/// does *not* run through this: it steps two worlds in lockstep after each
/// storm event to compare their databases at every intermediate state,
/// and that index-synchronised recombination is clearer as a plain loop
/// than as two simulations whose traces must be zipped back together.
/// The replay path below exists for drivers that mix storms with other
/// event sources (arrivals, traffic) on one clock — and as the pin that
/// the simcore port is exact (`replay_matches_direct_stepping`).
pub struct StormComponent {
    /// The live world; `take`n back out after the run.
    world: Option<World>,
    /// Per-event step reports, in delivery order.
    reports: Vec<StepReport>,
}

impl flexsched_simcore::Component for StormComponent {
    fn handle(
        &mut self,
        _at: flexsched_simnet::SimTime,
        event: flexsched_simcore::Event,
        _ctx: &mut flexsched_simcore::SimContext<'_>,
    ) {
        if let (Some(storm), Some(world)) = (StormEvent::from_sim_event(&event), &mut self.world) {
            self.reports.push(world.step(&storm));
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Replay a storm through the discrete-event engine: each event is
/// scheduled one millisecond after the previous (the spacing is arbitrary
/// — [`World::step`] is time-free — but distinct timestamps keep the
/// trace readable), the simulation runs to completion, and the stepped
/// world comes back out with its per-event reports.
pub fn replay_storm(world: World, events: &[StormEvent]) -> (World, Vec<StepReport>) {
    use flexsched_simnet::SimTime;
    let mut sim = flexsched_simcore::Simulation::new();
    let id = sim.add_component(
        "storm-world",
        Box::new(StormComponent {
            world: Some(world),
            reports: Vec::new(),
        }),
    );
    for (i, ev) in events.iter().enumerate() {
        sim.schedule_at(SimTime::from_ms(i as u64 + 1), id, ev.to_sim_event());
    }
    sim.run();
    let comp = sim
        .component_mut::<StormComponent>(id)
        .expect("storm component registered above");
    let world = comp.world.take().expect("world taken back after the run");
    (world, std::mem::take(&mut comp.reports))
}

/// Generate a deterministic storm: `count` events biased towards `bias`
/// links (the initial schedule footprints, so faults actually intersect
/// running trees). Faults strike *survivable transport* links only: a span
/// with a server on either end is a host drop, not a network fault, and a
/// bridge cut disconnects service under any policy — neither regime says
/// anything about rescheduling quality (`topo::algo::bridges` supplies the
/// distinction). Down/soft-failed/loaded sets are tracked so restorations
/// always refer to a live fault.
pub fn generate_events(
    topo: &Topology,
    bias: &[LinkId],
    count: usize,
    seed: u64,
) -> Vec<StormEvent> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5DEE_CE66_D154_AB91);
    let is_transport = |l: LinkId| {
        topo.link(l).is_ok_and(|link| {
            let a = topo.node(link.a).map(|n| n.kind);
            let b = topo.node(link.b).map(|n| n.kind);
            a.is_ok_and(|k| k != flexsched_topo::NodeKind::Server)
                && b.is_ok_and(|k| k != flexsched_topo::NodeKind::Server)
        })
    };
    let bridge_set: BTreeSet<LinkId> = flexsched_topo::algo::bridges(topo).into_iter().collect();
    let transport: Vec<LinkId> = (0..topo.link_count() as u32)
        .map(LinkId)
        .filter(|l| is_transport(*l) && !bridge_set.contains(l))
        .collect();
    assert!(
        !transport.is_empty(),
        "topology has no survivable transport links"
    );
    let bias: Vec<LinkId> = bias
        .iter()
        .copied()
        .filter(|l| is_transport(*l) && !bridge_set.contains(l))
        .collect();
    let mut down: Vec<LinkId> = Vec::new();
    let mut loads: Vec<(DirLink, f64)> = Vec::new();
    let mut soft: Vec<SoftFailure> = Vec::new();
    let mut events = Vec::with_capacity(count);
    // `None` when every transport link is already down — the caller then
    // emits a restoration instead, so a LinkDown can never duplicate an
    // already-down link (the tracker invariant the tests assert).
    let pick_link = |rng: &mut StdRng, down: &[LinkId]| -> Option<LinkId> {
        for _ in 0..8 {
            let l = if !bias.is_empty() && rng.random_range(0..100u32) < 60 {
                bias[rng.random_range(0..bias.len())]
            } else {
                transport[rng.random_range(0..transport.len())]
            };
            if !down.contains(&l) {
                return Some(l);
            }
        }
        transport.iter().copied().find(|l| !down.contains(l))
    };
    for _ in 0..count {
        let roll = rng.random_range(0..100u32);
        // One pick per event, whether or not the chosen branch needs it —
        // keeps the draw stream flat and deterministic across branches.
        let picked = pick_link(&mut rng, &down);
        let ev = if (roll < 20 || picked.is_none()) && !down.is_empty() {
            let l = down.swap_remove(rng.random_range(0..down.len()));
            StormEvent::LinkUp(l)
        } else if roll < 50 {
            let l = picked.expect("some transport link is up");
            down.push(l);
            StormEvent::LinkDown(l)
        } else if roll < 65 {
            let dl = DirLink::new(
                picked.expect("some transport link is up"),
                if roll % 2 == 0 {
                    Direction::AtoB
                } else {
                    Direction::BtoA
                },
            );
            let gbps = rng.random_range(20.0..120.0);
            loads.push((dl, gbps));
            StormEvent::LoadAdd(dl, gbps)
        } else if roll < 75 && !loads.is_empty() {
            let (dl, gbps) = loads.swap_remove(rng.random_range(0..loads.len()));
            StormEvent::LoadRemove(dl, gbps)
        } else if roll < 90 {
            let link = picked.expect("some transport link is up");
            let grid = topo.link(link).map(|l| l.wavelengths).unwrap_or(1);
            let f = SoftFailure {
                link,
                severity: rng.random_range(1u32..=u32::from(grid.max(1))) as u16,
            };
            soft.push(f);
            StormEvent::SoftFail(f)
        } else if !soft.is_empty() {
            let f = soft.swap_remove(rng.random_range(0..soft.len()));
            StormEvent::Heal(f)
        } else {
            let l = picked.expect("some transport link is up");
            down.push(l);
            StormEvent::LinkDown(l)
        };
        events.push(ev);
    }
    events
}

/// What one step did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StepReport {
    /// Tasks whose footprint intersected the event's links.
    pub affected: usize,
    /// Migrations installed via incremental repair.
    pub repaired: u32,
    /// Migrations installed via full re-solve.
    pub resolved: u32,
    /// Tasks dropped (no feasible replacement).
    pub dropped: u32,
    /// Strict-gate rejections of speculated repairs.
    pub repair_rejections: u32,
    /// `false` if any rejection left the database changed (the invariant
    /// the differential harness asserts).
    pub rejections_bit_identical: bool,
    /// Scheduling decisions computed this step (repairs + re-solves).
    pub decisions: u64,
}

/// A live control plane stepped through a storm.
pub struct World {
    mode: Mode,
    db: Database,
    committer: Committer,
    scheduler: FlexibleMst,
    scratch: ScratchPool,
    tasks: BTreeMap<TaskId, AiTask>,
    groomed: BTreeMap<TaskId, Vec<u64>>,
    running: BTreeSet<TaskId>,
    dropped: BTreeSet<TaskId>,
    /// Repair-drift guard for [`Mode::Repair`]: force a full re-solve for
    /// a task once it has been incrementally repaired this many times in a
    /// row (`None` = never, the pure-repair policy). The per-task counter
    /// itself lives in the [`Database`] (`note_repair` / `reset_repairs` /
    /// `repair_count`) — the same bookkeeping the production testbed uses.
    /// The drift sweep in `tests/repair_differential.rs` exercises the
    /// knob at long horizons.
    resolve_after: Option<u32>,
    /// Weight-drift trigger for [`Mode::Repair`]: force a full re-solve
    /// when the repaired broadcast tree costs more than this ratio times a
    /// Mehlhorn shadow-solve's fresh estimate
    /// (`ReschedulePolicy::resolve_on_cost_ratio`). `None` = repairs are
    /// never cost-checked.
    resolve_ratio: Option<f64>,
    /// Snapshot the full state around every strict migration so rejections
    /// can be verified bit-identical. Debug-formatting both layers is far
    /// too slow for throughput runs, so only the differential harness
    /// switches this on.
    verify_rejections: bool,
    /// Retry budget for strict-commit rejections on the repair path. The
    /// default (`max_attempts: 2`) reproduces the original hard-coded
    /// behaviour — one speculated attempt plus one fresh-state recompute —
    /// before falling back to a full re-solve; overload studies raise or
    /// shrink it via [`World::with_retry`].
    retry: RetryPolicy,
    /// Total scheduling decisions across the world's lifetime.
    pub decisions: u64,
    /// Total repair-path migrations.
    pub repairs: u64,
    /// Total full re-solve migrations.
    pub resolves: u64,
    /// Decisions taken on the *rescheduling* path only (degradation
    /// handling; excludes initial admissions and re-admissions, which are
    /// identical in both modes).
    pub resched_decisions: u64,
    /// Wall-clock time spent on the rescheduling path.
    pub resched_time: std::time::Duration,
}

impl World {
    /// Build a world: `n_tasks` tasks (seeded placement) admitted and
    /// committed up front. Admission is mode-independent, so two worlds
    /// with equal seeds start bit-identical.
    pub fn new(mode: Mode, topo: Arc<Topology>, n_tasks: usize, locals: usize, seed: u64) -> Self {
        Self::new_with_scheduler(mode, topo, n_tasks, locals, seed, FlexibleMst::paper())
    }

    /// [`World::new`] with an explicit scheduler configuration —
    /// `tests/repair_differential.rs` replays identical storms under the
    /// KMB and Mehlhorn closure policies to pin equal blocking probability.
    pub fn new_with_scheduler(
        mode: Mode,
        topo: Arc<Topology>,
        n_tasks: usize,
        locals: usize,
        seed: u64,
        scheduler: FlexibleMst,
    ) -> Self {
        let db = Database::new(
            NetworkState::new(Arc::clone(&topo)),
            OpticalState::new(Arc::clone(&topo)),
            ClusterManager::from_topology(&topo, ServerSpec::default()),
        );
        let mut cfg = WorkloadConfig::seeded_scenario(seed, n_tasks, locals);
        cfg.comm_budget_ms = (40.0, 80.0); // modest demand: storms, not melt-downs

        // Tenant classes ride a third RNG stream, so placement, demand and
        // arrivals stay byte-identical to the class-less scenario — only
        // the per-class reporting axis is new.
        cfg.class_mix = PRODUCTION_CLASS_MIX;
        let tasks = generate_workload(&topo, &cfg);
        let mut world = World {
            mode,
            db,
            committer: Committer::new(),
            scheduler,
            scratch: ScratchPool::new(),
            tasks: tasks.iter().map(|t| (t.id, t.clone())).collect(),
            groomed: BTreeMap::new(),
            running: BTreeSet::new(),
            dropped: BTreeSet::new(),
            resolve_after: None,
            resolve_ratio: None,
            verify_rejections: false,
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            decisions: 0,
            repairs: 0,
            resolves: 0,
            resched_decisions: 0,
            resched_time: std::time::Duration::ZERO,
        };
        for task in &tasks {
            world.try_admit(task.id);
        }
        world
    }

    /// The database (for invariant checks).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Enable the (expensive) bit-identical verification of rejected
    /// strict migrations — the differential harness's invariant (c).
    pub fn with_rejection_verification(mut self) -> Self {
        self.verify_rejections = true;
        self
    }

    /// Set the repair-drift guard: force a full re-solve for any task
    /// already repaired `n` consecutive times (see
    /// `ReschedulePolicy::resolve_after_repairs`).
    pub fn with_resolve_after(mut self, n: Option<u32>) -> Self {
        self.resolve_after = n;
        self
    }

    /// Set the weight-drift trigger: force a full re-solve when the
    /// repaired tree's cost exceeds the Mehlhorn shadow-solve estimate by
    /// this ratio (see `ReschedulePolicy::resolve_on_cost_ratio`).
    pub fn with_resolve_ratio(mut self, ratio: Option<f64>) -> Self {
        self.resolve_ratio = ratio;
        self
    }

    /// Set the strict-commit retry budget for the repair path (see
    /// [`RetryPolicy`]; the default of 2 attempts reproduces the original
    /// one-recompute behaviour).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Tasks currently running.
    pub fn running(&self) -> &BTreeSet<TaskId> {
        &self.running
    }

    /// The task behind an id (population lookup).
    pub fn task(&self, id: TaskId) -> Option<&AiTask> {
        self.tasks.get(&id)
    }

    /// Fraction of the population not currently served — the blocking
    /// probability the REACH-style evaluation compares.
    pub fn blocking_probability(&self) -> f64 {
        1.0 - self.running.len() as f64 / self.tasks.len().max(1) as f64
    }

    /// Blocking probability split by tenant class, indexed by
    /// [`flexsched_task::ServiceClass::index`] (the repair-vs-resolve comparison reported
    /// per class; an unpopulated class reads 0.0). The denominators are the
    /// seeded population per class, so the per-class numbers recombine to
    /// [`World::blocking_probability`] exactly.
    pub fn blocking_by_class(&self) -> [f64; 3] {
        let mut total = [0usize; 3];
        let mut served = [0usize; 3];
        for (id, task) in &self.tasks {
            let i = task.class.index();
            total[i] += 1;
            if self.running.contains(id) {
                served[i] += 1;
            }
        }
        let mut out = [0.0f64; 3];
        for (i, o) in out.iter_mut().enumerate() {
            if total[i] > 0 {
                *o = 1.0 - served[i] as f64 / total[i] as f64;
            }
        }
        out
    }

    /// Distinct links the running schedules reserve on (storm bias input).
    pub fn footprint_links(&self) -> Vec<LinkId> {
        let topo = self.db.read(|net, _, _| net.topo_arc());
        let mut set = BTreeSet::new();
        for id in &self.running {
            if let Some(s) = self.db.schedule(*id) {
                for (dl, _) in s.reservations(&topo).unwrap_or_default() {
                    set.insert(dl.link);
                }
            }
        }
        set.into_iter().collect()
    }

    fn try_admit(&mut self, id: TaskId) -> bool {
        let task = self.tasks[&id].clone();
        let snap = self.db.snapshot();
        self.decisions += 1;
        let proposal =
            match self
                .scheduler
                .propose(&task, &task.local_sites, &snap, &mut self.scratch)
            {
                Ok(p) => p,
                Err(_) => {
                    self.dropped.insert(id);
                    return false;
                }
            };
        match self.committer.apply(&self.db, Intent::admit(&proposal)) {
            Ok(receipt) => {
                self.db.store_schedule(proposal.schedule);
                self.groomed.insert(id, receipt.groomed);
                self.running.insert(id);
                self.dropped.remove(&id);
                true
            }
            Err(OrchError::Rejected(_)) => {
                self.dropped.insert(id);
                false
            }
            Err(e) => panic!("admission failed structurally: {e}"),
        }
    }

    fn drop_task(&mut self, id: TaskId, report: &mut StepReport) {
        if self.db.take_schedule(id).is_some() {
            let groomed = self.groomed.remove(&id).unwrap_or_default();
            self.committer
                .release(&self.db, id, &groomed)
                .expect("releasing a committed schedule cannot fail");
        }
        self.running.remove(&id);
        self.dropped.insert(id);
        report.dropped += 1;
    }

    fn world_fmt(&self) -> (String, String) {
        self.db
            .read(|net, opt, _| (format!("{net:?}"), format!("{opt:?}")))
    }

    /// Re-run the full scheduler for `id` against a hypothetical world
    /// without its own reservations — the per-candidate cost the ROADMAP's
    /// pre-repair policy pays on every event.
    fn resolve_candidate(
        &mut self,
        id: TaskId,
        report: &mut StepReport,
    ) -> Option<(flexsched_sched::Schedule, flexsched_sched::Result<Proposal>)> {
        let schedule = self.db.schedule(id)?;
        let task = &self.tasks[&id];
        self.decisions += 1;
        report.decisions += 1;
        let candidate = self.db.read(|net, opt, _| {
            let mut without = net.clone();
            schedule.release(&mut without)?;
            let snap = NetworkSnapshot::capture(&without).with_optical(opt);
            self.scheduler
                .propose(task, &schedule.selected_locals, &snap, &mut self.scratch)
        });
        Some((schedule, candidate))
    }

    /// Migrate `id` onto `candidate`, or drop it when nothing fits.
    fn migrate_or_drop(
        &mut self,
        id: TaskId,
        schedule: &flexsched_sched::Schedule,
        candidate: flexsched_sched::Result<Proposal>,
        report: &mut StepReport,
    ) {
        match candidate {
            Ok(p) => {
                if self
                    .committer
                    .apply(&self.db, Intent::migrate(schedule, &p))
                    .is_ok()
                {
                    self.db.store_schedule(p.schedule);
                    self.resolves += 1;
                    report.resolved += 1;
                    // A fresh tree resets the repair-drift run.
                    self.db.reset_repairs(id);
                } else {
                    self.drop_task(id, report);
                }
            }
            Err(_) => self.drop_task(id, report),
        }
    }

    /// One pre-repair-policy decision: `reschedule::consider` with the
    /// full-re-solve policy — evaluate the current schedule, build the
    /// without-us hypothetical, re-run the full scheduler, price the
    /// candidate, apply the interruption threshold — then migrate, or drop
    /// the task when its schedule is structurally broken and nothing
    /// feasible came back. Strict-gate rejections (external writers racing
    /// the migration) retry under the world's [`RetryPolicy`]: `consider`'s
    /// own retry gate sheds the task once the budget is exhausted, so the
    /// loop is bounded — no task livelocks on a contested migrate.
    fn full_decision(&mut self, id: TaskId, report: &mut StepReport) {
        let task = self.tasks[&id].clone();
        let mut policy = ReschedulePolicy::full_resolve();
        policy.retry = Some(self.retry);
        let mut attempts = 0u32;
        loop {
            let Some(schedule) = self.db.schedule(id) else {
                return;
            };
            self.decisions += 1;
            report.decisions += 1;
            let scheduler = &self.scheduler;
            let scratch = &mut self.scratch;
            let verdict = self.db.read(|net, opt, cluster| {
                reschedule::consider(
                    &policy,
                    scheduler,
                    &task,
                    &schedule,
                    5,
                    0,
                    attempts,
                    net,
                    Some(opt),
                    cluster,
                    &Transport::tcp(),
                    scratch,
                )
            });
            match verdict {
                Ok(reschedule::RescheduleVerdict::Migrate { new_proposal, .. }) => {
                    match self
                        .committer
                        .apply(&self.db, Intent::migrate(&schedule, &new_proposal))
                    {
                        Ok(_) => {
                            self.db.store_schedule(new_proposal.schedule);
                            self.resolves += 1;
                            report.resolved += 1;
                            return;
                        }
                        Err(OrchError::Rejected(_)) => {
                            // Raced by another writer: re-decide against
                            // fresh state; `consider` sheds once the retry
                            // budget is gone.
                            attempts += 1;
                        }
                        Err(e) => panic!("migration failed structurally: {e}"),
                    }
                }
                Ok(reschedule::RescheduleVerdict::Shed { .. }) => {
                    self.drop_task(id, report);
                    return;
                }
                Ok(reschedule::RescheduleVerdict::Keep { .. }) | Err(_) => {
                    // The policy kept (or failed to replace) the schedule;
                    // if it is structurally broken it serves nothing —
                    // drop it.
                    if self.schedule_structurally_broken(id) {
                        self.drop_task(id, report);
                    }
                    return;
                }
            }
        }
    }

    /// Full re-solve + fit-gated migrate; drops the task when nothing fits.
    fn full_resolve(&mut self, id: TaskId, report: &mut StepReport) {
        let Some((schedule, candidate)) = self.resolve_candidate(id, report) else {
            return;
        };
        self.migrate_or_drop(id, &schedule, candidate, report);
    }

    /// Advance the world by one event. Degradations reschedule exactly the
    /// tasks the database's reverse index maps to the touched link;
    /// restorations re-try previously dropped tasks.
    pub fn step(&mut self, ev: &StormEvent) -> StepReport {
        let mut report = StepReport {
            rejections_bit_identical: true,
            ..StepReport::default()
        };
        match ev {
            StormEvent::LinkDown(l) => self.db.write(|net, _, _| net.set_down(*l, true)).unwrap(),
            StormEvent::LinkUp(l) => self.db.write(|net, _, _| net.set_down(*l, false)).unwrap(),
            StormEvent::LoadAdd(dl, g) => self
                .db
                .write(|net, _, _| net.add_background(*dl, *g))
                .unwrap(),
            StormEvent::LoadRemove(dl, g) => self
                .db
                .write(|net, _, _| net.add_background(*dl, -*g))
                .unwrap(),
            StormEvent::SoftFail(f) => {
                self.db.write(|_, opt, _| softfail::apply(opt, *f)).unwrap();
            }
            StormEvent::Heal(f) => self.db.write(|_, opt, _| softfail::heal(opt, *f)).unwrap(),
        }

        if ev.is_degradation() {
            let t0 = std::time::Instant::now();
            let affected = self.db.tasks_on_links(&[ev.link()]);
            report.affected = affected.len();
            match self.mode {
                Mode::Resolve => {
                    for id in affected {
                        self.full_decision(id, &mut report);
                    }
                }
                Mode::Repair => self.repair_pass(&affected, &mut report),
            }
            self.resched_time += t0.elapsed();
            self.resched_decisions += report.decisions;
        } else {
            // Capacity came back: give dropped tasks another chance, in
            // deterministic id order.
            let retry: Vec<TaskId> = self.dropped.iter().copied().collect();
            for id in retry {
                self.try_admit(id);
            }
        }
        report
    }

    fn schedule_structurally_broken(&self, id: TaskId) -> bool {
        let Some(schedule) = self.db.schedule(id) else {
            return false;
        };
        let snap = self.db.snapshot();
        let broken = flexsched_sched::BrokenLinks::from_snapshot(&snap, schedule.demand_gbps);
        flexsched_sched::repair::schedule_crosses(&schedule, &broken, snap.topo())
    }

    /// The repair pass is snapshot → propose → commit in miniature: one
    /// shared snapshot, every affected task's repair speculated against it,
    /// serial strict commits with one recompute on rejection, full re-solve
    /// as the last resort.
    fn repair_pass(&mut self, affected: &[TaskId], report: &mut StepReport) {
        type Speculated = Option<(Proposal, flexsched_sched::ClaimsDelta)>;
        let snap = Arc::new(self.db.snapshot());
        let mut speculated: Vec<(TaskId, flexsched_sched::Schedule, Speculated)> = Vec::new();
        for &id in affected {
            let Some(schedule) = self.db.schedule(id) else {
                continue;
            };
            // Repair-drift guard: once a task's consecutive-repair counter
            // trips, its next *repair-worthy* decision is a full re-solve
            // (the `None` attempt routes to `full_resolve` in the commit
            // loop). Structurally intact schedules are still triaged out —
            // the guard replaces repairs, it must not convert a harmless
            // load/soft-fail brush into a forced (and droppable) re-solve.
            if self
                .resolve_after
                .is_some_and(|n| self.db.repair_count(id) >= n)
            {
                if self.schedule_structurally_broken(id) {
                    self.db.reset_repairs(id);
                    speculated.push((id, schedule, None));
                }
                continue;
            }
            let task = &self.tasks[&id];
            self.decisions += 1;
            report.decisions += 1;
            match self
                .scheduler
                .propose_repair(task, &schedule, &snap, &mut self.scratch)
            {
                Ok(Some(rp)) => {
                    // Weight-drift trigger — the exact production rule
                    // (`reschedule::repair_cost_drifted`), so the harness
                    // sweep pins the policy the testbed actually runs:
                    // measurable drift routes the task to full re-solve.
                    if reschedule::repair_cost_drifted(
                        self.resolve_ratio,
                        &self.scheduler,
                        task,
                        &schedule,
                        &rp,
                        &snap,
                        &mut self.scratch,
                    ) {
                        self.db.reset_repairs(id);
                        speculated.push((id, schedule, None));
                        continue;
                    }
                    speculated.push((id, schedule, Some((rp.proposal, rp.delta))));
                }
                Ok(None) => {} // structurally intact: nothing to do
                Err(flexsched_sched::SchedError::Unreachable { .. }) => {
                    // An orphan with no finite-weight attachment path is
                    // just as unreachable for the full re-solve: repair's
                    // infinite-weight set is a *subset* of the solve's (it
                    // additionally treats the task's own links as routable,
                    // and releasing the reservations in the without-us
                    // world only frees those same links), so the fallback
                    // solve is skipped — the task cannot be served now.
                    self.drop_task(id, report);
                }
                Err(_) => speculated.push((id, schedule, None)), // e.g. rate floor
            }
        }
        for (id, schedule, proposal) in speculated {
            let mut attempt = proposal;
            // Commit attempts burned so far; the world's RetryPolicy bounds
            // the recompute loop (default budget 2 = the original
            // one-recompute behaviour) before full re-solve takes over.
            let mut attempts = 0u32;
            loop {
                match attempt.take() {
                    Some((p, delta)) => {
                        let before = self.verify_rejections.then(|| self.world_fmt());
                        match self
                            .committer
                            .apply(&self.db, Intent::repair(&schedule, &p, &delta))
                        {
                            Ok(_) => {
                                self.db.store_schedule(p.schedule);
                                self.repairs += 1;
                                report.repaired += 1;
                                self.db.note_repair(id);
                                break;
                            }
                            Err(OrchError::Rejected(_)) => {
                                report.repair_rejections += 1;
                                if let Some(before) = before {
                                    report.rejections_bit_identical &= before == self.world_fmt();
                                }
                                attempts += 1;
                                if self.retry.exhausted(attempts) {
                                    self.full_resolve(id, report);
                                    break;
                                }
                                // Recompute against fresh state, boundedly.
                                let fresh = self.db.snapshot();
                                self.decisions += 1;
                                report.decisions += 1;
                                let task = &self.tasks[&id];
                                attempt = self
                                    .scheduler
                                    .propose_repair(task, &schedule, &fresh, &mut self.scratch)
                                    .ok()
                                    .flatten()
                                    .map(|rp| (rp.proposal, rp.delta));
                                if attempt.is_none() {
                                    self.full_resolve(id, report);
                                    break;
                                }
                            }
                            Err(e) => panic!("migration failed structurally: {e}"),
                        }
                    }
                    None => {
                        self.full_resolve(id, report);
                        break;
                    }
                }
            }
        }
    }

    /// Invariant (a) of the differential contract: every running schedule
    /// is feasible against live state — no reservation rides a down link,
    /// per-direction reservations fit capacity, and the database's reserved
    /// totals are exactly the sum of the running schedules.
    pub fn check_feasible(&self) -> Result<(), String> {
        let topo = self.db.read(|net, _, _| net.topo_arc());
        let mut expected: BTreeMap<DirLink, f64> = BTreeMap::new();
        for id in &self.running {
            let Some(s) = self.db.schedule(*id) else {
                return Err(format!("running task {id} has no stored schedule"));
            };
            for (dl, gbps) in s
                .reservations(&topo)
                .map_err(|e| format!("task {id}: {e}"))?
            {
                if self.db.read(|net, _, _| net.is_down(dl.link)) {
                    return Err(format!("task {id} reserves on down link {}", dl.link));
                }
                *expected.entry(dl).or_insert(0.0) += gbps;
            }
        }
        for link in topo.links() {
            let cap = link.capacity_gbps;
            for dir in [Direction::AtoB, Direction::BtoA] {
                let dl = DirLink::new(link.id, dir);
                let reserved = self
                    .db
                    .read(|net, _, _| net.usage(dl).map(|u| u.reserved_gbps))
                    .map_err(|e| format!("usage({dl:?}): {e}"))?;
                let want = expected.get(&dl).copied().unwrap_or(0.0);
                if (reserved - want).abs() > 1e-6 {
                    return Err(format!(
                        "link {} {dir:?}: reserved {reserved} != schedules' {want}",
                        link.id
                    ));
                }
                if reserved > cap + 1e-6 {
                    return Err(format!(
                        "link {} {dir:?}: reserved {reserved} exceeds capacity {cap}",
                        link.id
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_build_identical_worlds() {
        let topo = StormTopology::Metro.build();
        let a = World::new(Mode::Repair, Arc::clone(&topo), 6, 4, 9);
        let b = World::new(Mode::Resolve, Arc::clone(&topo), 6, 4, 9);
        assert_eq!(a.running(), b.running());
        assert_eq!(a.footprint_links(), b.footprint_links());
        a.check_feasible().unwrap();
        b.check_feasible().unwrap();
    }

    #[test]
    fn storm_generation_is_deterministic_and_well_formed() {
        let topo = StormTopology::Metro.build();
        let bias = vec![LinkId(0), LinkId(3)];
        let a = generate_events(&topo, &bias, 40, 7);
        let b = generate_events(&topo, &bias, 40, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        // Restorations only ever name links that are actually down/failed.
        let mut down = BTreeSet::new();
        for ev in &a {
            match ev {
                StormEvent::LinkDown(l) => {
                    down.insert(*l);
                }
                StormEvent::LinkUp(l) => assert!(down.remove(l), "up of a live link"),
                _ => {}
            }
        }
    }

    #[test]
    fn blocking_by_class_recombines_to_the_aggregate() {
        let topo = StormTopology::Metro.build();
        let mut world = World::new(Mode::Repair, Arc::clone(&topo), 10, 4, 13);
        let events = generate_events(&topo, &world.footprint_links(), 12, 13);
        for ev in &events {
            world.step(ev);
        }
        // The production mix populates more than one class at n=10, and
        // the per-class fractions recombine to the aggregate exactly.
        let by_class = world.blocking_by_class();
        let mut total = [0usize; 3];
        for t in world.tasks.values() {
            total[t.class.index()] += 1;
        }
        assert!(total.iter().filter(|n| **n > 0).count() >= 2);
        let blocked: f64 = (0..3).map(|i| by_class[i] * total[i] as f64).sum();
        let aggregate = world.blocking_probability() * world.tasks.len() as f64;
        assert!((blocked - aggregate).abs() < 1e-9);
    }

    #[test]
    fn class_mix_does_not_perturb_placement() {
        // The class stream is independent: a world built from the
        // class-less scenario config serves the identical task set.
        let topo = StormTopology::Metro.build();
        let world = World::new(Mode::Repair, Arc::clone(&topo), 8, 4, 17);
        let mut cfg = WorkloadConfig::seeded_scenario(17, 8, 4);
        cfg.comm_budget_ms = (40.0, 80.0);
        let classless = generate_workload(&topo, &cfg);
        for t in &classless {
            let w = world.task(t.id).expect("same population");
            assert_eq!(w.global_site, t.global_site);
            assert_eq!(w.local_sites, t.local_sites);
            assert_eq!(w.arrival_ns, t.arrival_ns);
        }
    }

    #[test]
    fn storm_events_round_trip_through_sim_vocabulary() {
        let topo = StormTopology::Metro.build();
        let world = World::new(Mode::Repair, Arc::clone(&topo), 6, 4, 33);
        let events = generate_events(&topo, &world.footprint_links(), 40, 33);
        assert!(!events.is_empty());
        for ev in &events {
            let round = StormEvent::from_sim_event(&ev.to_sim_event())
                .expect("storm vocabulary maps onto sim events");
            assert_eq!(*ev, round, "lossy sim-event mapping");
        }
    }

    #[test]
    fn replay_matches_direct_stepping() {
        // The simcore replay is a port, not a re-interpretation: the same
        // world stepped through the same storm — once as a plain loop,
        // once as scheduled events — must end bit-identical, down to the
        // mutation-stamped database debug representation.
        let topo = StormTopology::Metro.build();
        let events = {
            let probe = World::new(Mode::Repair, Arc::clone(&topo), 6, 4, 29);
            generate_events(&topo, &probe.footprint_links(), 24, 29)
        };

        let mut direct = World::new(Mode::Repair, Arc::clone(&topo), 6, 4, 29);
        let direct_reports: Vec<StepReport> = events.iter().map(|ev| direct.step(ev)).collect();

        let replay_world = World::new(Mode::Repair, Arc::clone(&topo), 6, 4, 29);
        let (replayed, replay_reports) = replay_storm(replay_world, &events);

        assert_eq!(direct_reports, replay_reports, "per-step reports differ");
        assert_eq!(direct.running(), replayed.running());
        let fp = |w: &World| w.db().read(|net, opt, _| format!("{net:?}|{opt:?}"));
        assert_eq!(fp(&direct), fp(&replayed), "database fingerprints differ");
    }

    #[test]
    fn repair_world_survives_a_storm_feasibly() {
        let topo = StormTopology::Metro.build();
        let mut world = World::new(Mode::Repair, Arc::clone(&topo), 6, 5, 21);
        let events = generate_events(&topo, &world.footprint_links(), 20, 21);
        for ev in &events {
            let report = world.step(ev);
            assert!(report.rejections_bit_identical);
            world
                .check_feasible()
                .unwrap_or_else(|e| panic!("after {ev:?}: {e}"));
        }
        assert!(world.repairs > 0, "a 20-event storm must exercise repair");
    }
}
