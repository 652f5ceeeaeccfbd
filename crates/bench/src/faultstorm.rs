//! Fault-storm worlds: the driver behind the repair-vs-resolve
//! differential harness.
//!
//! A [`World`] is a live control plane (database + committer + scheduler)
//! with a population of committed tasks, stepped through a deterministic
//! [`StormEvent`] sequence. Two worlds built from the same seed see
//! identical admissions and identical events, and both make every
//! rescheduling decision through [`reschedule::consider`] — the
//! consideration the testbed drivers run. They differ in one value of the
//! [`ReschedulePolicy`] they hand it, chosen by [`Mode`]:
//!
//! * [`Mode::Repair`] — `prefer_repair` on: incremental tree repair first,
//!   full re-solve as the fallback.
//! * [`Mode::Resolve`] — `prefer_repair` off: every affected task is fully
//!   re-solved.
//!
//! Either way a migration commits through the one fit-validated migration
//! intent.
//!
//! The differential test (`tests/repair_differential.rs`) steps both worlds
//! in lockstep and pins: every running schedule is feasible against live
//! state, and the repair world serves no fewer tasks than the resolve world
//! (minus a bounded gap).

use flexsched_compute::{ClusterManager, ServerSpec};
use flexsched_optical::{softfail, OpticalState, SoftFailure};
use flexsched_orchestrator::{Committer, Database, Intent, OrchError};
use flexsched_sched::reschedule::{self, RescheduleVerdict};
use flexsched_sched::{repair, FlexibleMst, ReschedulePolicy, RetryPolicy, Scheduler};
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
    pub(crate) fn link(&self) -> LinkId {
        match self {
            StormEvent::LinkDown(l) | StormEvent::LinkUp(l) => *l,
            StormEvent::LoadAdd(dl, _) | StormEvent::LoadRemove(dl, _) => dl.link,
            StormEvent::SoftFail(f) | StormEvent::Heal(f) => f.link,
        }
    }

    /// Whether this event can only degrade running schedules (faults and
    /// load arrivals) as opposed to opening capacity back up.
    pub(crate) fn is_degradation(&self) -> bool {
        matches!(
            self,
            StormEvent::LinkDown(_) | StormEvent::LoadAdd(..) | StormEvent::SoftFail(_)
        )
    }
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

/// A live control plane stepped through a storm.
pub struct World {
    /// The one value the two differential worlds differ in
    /// (`prefer_repair`), plus the repair-drift counter bound the sweep in
    /// `tests/repair_differential.rs` turns (`resolve_after_repairs`, off
    /// by default — the pure-repair policy) and a 2-attempt budget for
    /// migrations that lose their commit. The per-task repair counter
    /// itself lives in the [`Database`] (`note_repair` / `reset_repairs` /
    /// `repair_count`), as in the testbed.
    policy: ReschedulePolicy,
    db: Database,
    committer: Committer,
    scheduler: FlexibleMst,
    scratch: ScratchPool,
    tasks: BTreeMap<TaskId, AiTask>,
    groomed: BTreeMap<TaskId, Vec<u64>>,
    running: BTreeSet<TaskId>,
    dropped: BTreeSet<TaskId>,
    /// Total repair-path migrations.
    pub repairs: u64,
    /// Total full re-solve migrations.
    pub resolves: u64,
}

impl World {
    /// Build a world: `n_tasks` tasks (seeded placement) admitted and
    /// committed up front. Admission is mode-independent, so two worlds
    /// with equal seeds start bit-identical.
    pub fn new(mode: Mode, topo: Arc<Topology>, n_tasks: usize, locals: usize, seed: u64) -> Self {
        let db = Database::new(
            NetworkState::new(Arc::clone(&topo)),
            OpticalState::new(Arc::clone(&topo)),
            ClusterManager::from_topology(&topo, ServerSpec::default()),
        );
        let mut cfg = WorkloadConfig::seeded_scenario(seed, n_tasks, locals);
        cfg.comm_budget_ms = (40.0, 80.0); // modest demand: storms, not melt-downs

        // Tenant classes ride a third RNG stream, so placement, demand and
        // arrivals stay byte-identical to the class-less scenario.
        cfg.class_mix = PRODUCTION_CLASS_MIX;
        let tasks = generate_workload(&topo, &cfg);
        let mut world = World {
            policy: ReschedulePolicy {
                prefer_repair: mode == Mode::Repair,
                resolve_after_repairs: None,
                retry: Some(RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                }),
                ..ReschedulePolicy::default()
            },
            db,
            committer: Committer::new(),
            scheduler: FlexibleMst::paper(),
            scratch: ScratchPool::new(),
            tasks: tasks.iter().map(|t| (t.id, t.clone())).collect(),
            groomed: BTreeMap::new(),
            running: BTreeSet::new(),
            dropped: BTreeSet::new(),
            repairs: 0,
            resolves: 0,
        };
        for task in &tasks {
            world.try_admit(task.id);
        }
        world
    }

    /// Set the repair-drift guard: force a full re-solve for any task
    /// already repaired `n` consecutive times (see
    /// `ReschedulePolicy::resolve_after_repairs`).
    pub fn with_resolve_after(mut self, n: Option<u32>) -> Self {
        self.policy.resolve_after_repairs = n;
        self
    }

    /// Tasks currently running.
    pub fn running(&self) -> &BTreeSet<TaskId> {
        &self.running
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

    fn drop_task(&mut self, id: TaskId) {
        if self.db.take_schedule(id).is_some() {
            let groomed = self.groomed.remove(&id).unwrap_or_default();
            self.committer
                .release(&self.db, id, &groomed)
                .expect("releasing a committed schedule cannot fail");
        }
        self.running.remove(&id);
        self.dropped.insert(id);
    }

    /// The world's one rescheduling decision, for either mode:
    /// [`reschedule::consider`] under the world's policy, then its
    /// migration committed through the fit-validated migration intent (a
    /// repair, `repair_delta: Some`, names it through `Intent::repair`),
    /// with the database's repair counter kept as `Pipeline::reconsider`
    /// keeps it. A rejected commit re-decides against fresh state;
    /// `consider`'s own retry gate sheds the task once the budget is gone,
    /// so the loop is bounded. A schedule the policy kept (or could not
    /// replace) although it crosses a dead link serves nothing and is
    /// dropped.
    fn reconsider(&mut self, id: TaskId) {
        let task = self.tasks[&id].clone();
        let mut attempts = 0u32;
        loop {
            let Some(schedule) = self.db.schedule(id) else {
                return;
            };
            let repairs_so_far = self.db.repair_count(id);
            let (policy, scheduler, scratch) = (&self.policy, &self.scheduler, &mut self.scratch);
            let verdict = self.db.read(|net, opt, cluster| {
                reschedule::consider(
                    policy,
                    scheduler,
                    &task,
                    &schedule,
                    5,
                    repairs_so_far,
                    attempts,
                    net,
                    Some(opt),
                    cluster,
                    &Transport::tcp(),
                    scratch,
                )
            });
            // One forced full consideration per tripped counter, whatever
            // its verdict.
            if policy
                .resolve_after_repairs
                .is_some_and(|n| repairs_so_far >= n)
            {
                self.db.reset_repairs(id);
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
                    match self.committer.apply(&self.db, intent) {
                        Ok(_) => {
                            self.db.store_schedule(new_proposal.schedule);
                            if repair_delta.is_some() {
                                self.repairs += 1;
                                self.db.note_repair(id);
                            } else {
                                self.resolves += 1;
                                self.db.reset_repairs(id);
                            }
                            return;
                        }
                        Err(OrchError::Rejected(_)) => attempts += 1,
                        Err(e) => panic!("migration failed structurally: {e}"),
                    }
                }
                Ok(RescheduleVerdict::Shed { .. }) => return self.drop_task(id),
                Ok(RescheduleVerdict::Keep { .. }) | Err(_) => {
                    let broken = self
                        .db
                        .read(|net, opt, _| repair::crosses_dead_link(&schedule, net, Some(opt)));
                    if broken {
                        self.drop_task(id);
                    }
                    return;
                }
            }
        }
    }

    /// Advance the world by one event. Degradations reconsider exactly the
    /// tasks the database's reverse index maps to the touched link;
    /// restorations re-try previously dropped tasks.
    pub fn step(&mut self, ev: &StormEvent) {
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
            for id in self.db.tasks_on_links(&[ev.link()]) {
                self.reconsider(id);
            }
        } else {
            // Capacity came back: give dropped tasks another chance, in
            // deterministic id order.
            let retry: Vec<TaskId> = self.dropped.iter().copied().collect();
            for id in retry {
                self.try_admit(id);
            }
        }
    }

    /// Invariant (a) of the differential contract: the control plane's
    /// state invariant ([`Committer::check_invariants`]) holds, every
    /// running task has a stored schedule, and no running schedule
    /// reserves on a down link. The last is this world's contract, not the
    /// drivers': it drops a schedule that keeps crossing a dead link, they
    /// keep it until it is repaired, migrated or healed.
    pub fn check_feasible(&self) -> Result<(), String> {
        self.committer
            .check_invariants(&self.db)
            .map_err(|(clause, detail)| format!("invariant `{clause}`: {detail}"))?;
        let unscheduled = |id: &&TaskId| self.db.schedule(**id).is_none();
        if let Some(id) = self.running.iter().find(unscheduled) {
            return Err(format!("running task {id} has no stored schedule"));
        }
        let down = |l: &LinkId| self.db.read(|net, _, _| net.is_down(*l));
        match self.footprint_links().into_iter().find(down) {
            Some(l) => Err(format!("a running schedule reserves on down link {l}")),
            None => Ok(()),
        }
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
    fn class_mix_does_not_perturb_placement() {
        // The class stream is independent: a world built from the
        // class-less scenario config serves the identical task set.
        let topo = StormTopology::Metro.build();
        let world = World::new(Mode::Repair, Arc::clone(&topo), 8, 4, 17);
        let mut cfg = WorkloadConfig::seeded_scenario(17, 8, 4);
        cfg.comm_budget_ms = (40.0, 80.0);
        let classless = generate_workload(&topo, &cfg);
        for t in &classless {
            let w = &world.tasks[&t.id];
            assert_eq!(w.global_site, t.global_site);
            assert_eq!(w.local_sites, t.local_sites);
            assert_eq!(w.arrival_ns, t.arrival_ns);
        }
    }

    #[test]
    fn repair_world_survives_a_storm_feasibly() {
        let topo = StormTopology::Metro.build();
        let mut world = World::new(Mode::Repair, Arc::clone(&topo), 6, 5, 21);
        let events = generate_events(&topo, &world.footprint_links(), 20, 21);
        for ev in &events {
            world.step(ev);
            world
                .check_feasible()
                .unwrap_or_else(|e| panic!("after {ev:?}: {e}"));
        }
        assert!(world.repairs > 0, "a 20-event storm must exercise repair");
    }
}
