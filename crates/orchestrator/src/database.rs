//! The central database of Figure 2.
//!
//! Holds the orchestrator's view of everything: network conditions, optical
//! state, compute occupancy (each placed task's replicas, kept by the
//! cluster under the task's id), and the running tasks' schedules with
//! their link → tasks index and repair counters. A task has no record of
//! its own here: it is running exactly while a schedule is stored for it.
//! A [`Database`] is a cheaply clonable handle to one store behind a
//! `parking_lot::RwLock`: the `Pipeline` holds it and lends it to the
//! committer (whose SDN controller and grooming manager write the network
//! and optical state) and to the task manager (containers); a clone reads
//! the same store after a run.

use crate::Result;
use flexsched_compute::ClusterManager;
use flexsched_optical::OpticalState;
use flexsched_sched::Schedule;
use flexsched_simnet::{DirLink, NetworkState};
use flexsched_task::TaskId;
use flexsched_topo::{Direction, LinkId};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Lifecycle of an admitted task, as the benchmark adapter's replay
/// reports it to [`Database::set_phase`]; the database records no phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPhase {
    /// Scheduled and training.
    Running,
    /// Could not be scheduled within the scenario.
    Blocked,
}

#[derive(Debug)]
struct DbInner {
    network: NetworkState,
    optical: OpticalState,
    cluster: ClusterManager,
    schedules: BTreeMap<TaskId, Schedule>,
    /// Reverse index `link → tasks whose stored schedule routes over it`,
    /// each list ascending and duplicate-free, maintained by
    /// [`Database::store_schedule`] / `take_schedule` with one
    /// binary-search insert or remove per *distinct* link of the schedule
    /// ([`Schedule::links_into`]). A fault on link `l` must consider
    /// exactly `link_tasks[l]` for repair — without this, every fault pays
    /// a scan over every stored schedule.
    link_tasks: Vec<Vec<TaskId>>,
    /// Inserts and removes `link_tasks` has taken so far: the index's work
    /// as a deterministic count.
    index_ops: u64,
    /// The links of the schedule being indexed, refilled in place.
    links: Vec<LinkId>,
    /// Consecutive incremental repairs per task since its last full
    /// re-solve — the repair-drift guard's input
    /// (`ReschedulePolicy::resolve_after_repairs`). Bumped by
    /// [`Database::note_repair`], cleared by
    /// [`Database::reset_repairs`] and when the schedule is taken.
    repair_counts: BTreeMap<TaskId, u32>,
}

impl DbInner {
    fn index_schedule(&mut self, schedule: &Schedule, present: bool) {
        schedule.links_into(&mut self.links);
        for l in &self.links {
            let Some(tasks) = self.link_tasks.get_mut(l.index()) else {
                continue; // stored schedules are built on this topology
            };
            match (tasks.binary_search(&schedule.task), present) {
                (Err(at), true) => tasks.insert(at, schedule.task),
                (Ok(at), false) => {
                    tasks.remove(at);
                }
                _ => {}
            }
            self.index_ops += 1;
        }
    }
}

/// Shared, thread-safe database handle.
#[derive(Debug, Clone)]
pub struct Database {
    inner: Arc<RwLock<DbInner>>,
}

impl Database {
    /// Create a database over fresh network/optical/cluster state.
    pub fn new(network: NetworkState, optical: OpticalState, cluster: ClusterManager) -> Self {
        let link_tasks = vec![Vec::new(); network.topo().link_count()];
        Database {
            inner: Arc::new(RwLock::new(DbInner {
                network,
                optical,
                cluster,
                schedules: BTreeMap::new(),
                link_tasks,
                index_ops: 0,
                links: Vec::new(),
                repair_counts: BTreeMap::new(),
            })),
        }
    }

    /// Run `f` with read access to (network, optical, cluster).
    pub fn read<R>(&self, f: impl FnOnce(&NetworkState, &OpticalState, &ClusterManager) -> R) -> R {
        let g = self.inner.read();
        f(&g.network, &g.optical, &g.cluster)
    }

    /// Run `f` with write access to (network, optical, cluster).
    pub fn write<R>(
        &self,
        f: impl FnOnce(&mut NetworkState, &mut OpticalState, &mut ClusterManager) -> R,
    ) -> R {
        let mut g = self.inner.write();
        let DbInner {
            network,
            optical,
            cluster,
            ..
        } = &mut *g;
        f(network, optical, cluster)
    }

    /// Records nothing: a task is running exactly while a schedule is
    /// stored for it. Kept for the benchmark adapter's replay, which reports
    /// each start and each give-up here.
    pub fn set_phase(&self, _id: TaskId, _phase: TaskPhase) -> Result<()> {
        Ok(())
    }

    /// Remove a finished task's bookkeeping entirely: repair counter and
    /// any stored schedule (reverse index maintained).
    ///
    /// [`crate::EventTestbed`] prunes each task when it leaves, so database
    /// memory stays bounded by *in-flight* tasks rather than total tasks.
    pub fn forget_task(&self, id: TaskId) {
        let mut g = self.inner.write();
        if let Some(schedule) = g.schedules.remove(&id) {
            g.index_schedule(&schedule, false);
        }
        g.repair_counts.remove(&id);
    }

    /// Store (replace) a task's active schedule, keeping the link → tasks
    /// reverse index in step.
    pub fn store_schedule(&self, schedule: Schedule) {
        let mut g = self.inner.write();
        if let Some(old) = g.schedules.remove(&schedule.task) {
            g.index_schedule(&old, false);
        }
        g.index_schedule(&schedule, true);
        g.schedules.insert(schedule.task, schedule);
    }

    /// Remove a task's schedule, returning it. Clears the task's
    /// repair-drift counter — a future schedule starts fresh.
    pub fn take_schedule(&self, id: TaskId) -> Option<Schedule> {
        let mut g = self.inner.write();
        g.repair_counts.remove(&id);
        let schedule = g.schedules.remove(&id)?;
        g.index_schedule(&schedule, false);
        Some(schedule)
    }

    /// Consecutive incremental repairs of `id`'s schedule since its last
    /// full re-solve (the repair-drift guard's counter).
    pub fn repair_count(&self, id: TaskId) -> u32 {
        self.inner
            .read()
            .repair_counts
            .get(&id)
            .copied()
            .unwrap_or(0)
    }

    /// Record one more incremental repair of `id`'s schedule; returns the
    /// new count.
    pub fn note_repair(&self, id: TaskId) -> u32 {
        let mut g = self.inner.write();
        let slot = g.repair_counts.entry(id).or_insert(0);
        *slot += 1;
        *slot
    }

    /// Clear `id`'s repair-drift counter (a full re-solve installed a
    /// fresh tree).
    pub fn reset_repairs(&self, id: TaskId) {
        self.inner.write().repair_counts.remove(&id);
    }

    /// Tasks whose stored schedule reserves on `link` (the fault →
    /// affected-schedules lookup), ascending.
    pub fn tasks_on_link(&self, link: LinkId) -> Vec<TaskId> {
        self.inner
            .read()
            .link_tasks
            .get(link.index())
            .cloned()
            .unwrap_or_default()
    }

    /// Inserts and removes the link → tasks index has taken since the
    /// database was built (pinned by `event_testbed`'s tests).
    #[cfg(test)]
    pub(crate) fn index_ops(&self) -> u64 {
        self.inner.read().index_ops
    }

    /// Clone a task's schedule.
    pub fn schedule(&self, id: TaskId) -> Option<Schedule> {
        self.inner.read().schedules.get(&id).cloned()
    }

    /// Whether `id`'s stored schedule crosses a link that is dead in live
    /// state ([`flexsched_sched::repair::crosses_dead_link`]), answered in
    /// place under one read lock — the per-tick question of the periodic
    /// reschedule check, which must not clone a schedule to ask it.
    /// `false` for a task without a stored schedule.
    pub fn schedule_crosses_dead_link(&self, id: TaskId) -> bool {
        let g = self.inner.read();
        g.schedules.get(&id).is_some_and(|s| {
            flexsched_sched::repair::crosses_dead_link(s, &g.network, Some(&g.optical))
        })
    }

    /// Run `f` over (network, optical, cluster) and the stored schedules,
    /// under one read lock — a reader of a stored schedule borrows it
    /// instead of cloning it.
    pub(crate) fn read_schedules<R>(
        &self,
        f: impl FnOnce(&NetworkState, &OpticalState, &ClusterManager, &BTreeMap<TaskId, Schedule>) -> R,
    ) -> R {
        let g = self.inner.read();
        f(&g.network, &g.optical, &g.cluster, &g.schedules)
    }

    /// Number of active schedules.
    #[cfg(test)]
    pub(crate) fn schedule_count(&self) -> usize {
        self.inner.read().schedules.len()
    }

    /// Current total reserved bandwidth (the live Figure-3b counter).
    pub fn total_reserved_gbps(&self) -> f64 {
        self.inner.read().network.total_reserved_gbps()
    }

    /// The database's clauses of the state invariant: `reservations` and
    /// `ledger`, then the optical state's `spectrum` and the cluster's
    /// `cluster` (README "One invariant").
    pub(crate) fn check_invariants(&self) -> std::result::Result<(), (&'static str, String)> {
        let g = self.inner.read();
        let topo = g.network.topo();
        let mut want = vec![[0.0; 2]; topo.link_count()];
        let mut footprint: Vec<Vec<TaskId>> = vec![Vec::new(); topo.link_count()];
        for (id, s) in &g.schedules {
            for (dl, gbps) in s.reservations(topo).unwrap_or_default() {
                want[dl.link.index()][dl.dir as usize] += gbps;
                // Schedules come in ascending id order, so each list is
                // ascending and a repeat of `id` is its last entry.
                let tasks = &mut footprint[dl.link.index()];
                if tasks.last() != Some(id) {
                    tasks.push(*id);
                }
            }
        }
        for (link, want) in topo.links().iter().zip(want) {
            for (dir, want) in [Direction::AtoB, Direction::BtoA].into_iter().zip(want) {
                let dl = DirLink::new(link.id, dir);
                let got = g.network.usage(dl).map_or(0.0, |u| u.reserved_gbps);
                if (got - want).abs() > 1e-6 || got > link.capacity_gbps + 1e-6 {
                    let what = format!("{dl:?}: {got} reserved, {want} scheduled");
                    return Err(("reservations", what));
                }
            }
        }
        let scheduled = |id: &TaskId| g.schedules.contains_key(id);
        if footprint != g.link_tasks || !g.repair_counts.keys().all(scheduled) {
            let what = "link_tasks or repair counters ≠ stored schedules";
            return Err(("ledger", what.to_string()));
        }
        g.optical.check_invariants()?;
        g.cluster.check_invariants()
    }

    /// The post-run "empty ledger" invariant of an [`crate::EventTestbed`]
    /// run: once every admitted task has departed or been shed, no per-task
    /// bookkeeping may survive. Returns one description per leftover —
    /// empty means clean. Used by the long-horizon harnesses; a non-empty
    /// result is a leak in a teardown path (`forget_task`, shed, or the
    /// reverse-index maintenance).
    pub fn ledger_leftovers(&self) -> Vec<String> {
        let g = self.inner.read();
        let mut out = Vec::new();
        for id in g.schedules.keys() {
            out.push(format!("schedule {id:?}"));
        }
        for id in g.repair_counts.keys() {
            out.push(format!("repair counter {id:?}"));
        }
        for (idx, tasks) in g.link_tasks.iter().enumerate() {
            if !tasks.is_empty() {
                out.push(format!("link {idx} reverse index {tasks:?}"));
            }
        }
        if g.cluster.container_count() > 0 {
            out.push(format!(
                "{} containers still placed on the cluster",
                g.cluster.container_count()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_compute::server::ResourceRequest;
    use flexsched_compute::{ModelProfile, ServerSpec};
    use flexsched_task::AiTask;
    use flexsched_topo::builders;

    fn db() -> Database {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let network = NetworkState::new(Arc::clone(&topo));
        let optical = OpticalState::new(Arc::clone(&topo));
        let cluster = ClusterManager::from_topology(&topo, ServerSpec::default());
        Database::new(network, optical, cluster)
    }

    #[test]
    fn write_access_mutates_network() {
        let db = db();
        let before = db.total_reserved_gbps();
        db.write(|net, _, _| {
            net.reserve(
                flexsched_simnet::DirLink::new(
                    flexsched_topo::LinkId(0),
                    flexsched_topo::Direction::AtoB,
                ),
                5.0,
            )
            .unwrap();
        });
        assert!(db.total_reserved_gbps() > before);
    }

    #[test]
    fn database_is_shareable_across_threads() {
        let db = db();
        // Each thread bumps its own task's repair counter and a shared one.
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        db.note_repair(TaskId(i));
                        db.note_repair(TaskId(9));
                    }
                    db.repair_count(TaskId(i))
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 100);
        }
        assert_eq!(db.repair_count(TaskId(9)), 400);
        assert_eq!(db.ledger_leftovers().len(), 5, "five repair counters");
    }

    #[test]
    fn schedules_store_and_take() {
        let db = db();
        assert_eq!(db.schedule_count(), 0);
        assert!(db.take_schedule(TaskId(0)).is_none());
    }

    #[test]
    fn repair_counters_accumulate_and_reset() {
        let db = db();
        let id = TaskId(3);
        assert_eq!(db.repair_count(id), 0);
        assert_eq!(db.note_repair(id), 1);
        assert_eq!(db.note_repair(id), 2);
        assert_eq!(db.repair_count(id), 2);
        db.reset_repairs(id);
        assert_eq!(db.repair_count(id), 0);
        // Taking the schedule also clears the run.
        db.note_repair(id);
        let _ = db.take_schedule(id);
        assert_eq!(db.repair_count(id), 0);
    }

    #[test]
    fn ledger_leftovers_names_every_residue_class() {
        let db = db();
        assert!(db.ledger_leftovers().is_empty(), "fresh db is clean");
        db.note_repair(TaskId(1));
        let site = db.read(|net, _, _| net.topo().servers()[0]);
        let replica = (site, ResourceRequest::local_model());
        db.write(|_, _, cluster| cluster.place_task(1, vec![replica]))
            .unwrap();
        let leftovers = db.ledger_leftovers();
        assert_eq!(leftovers.len(), 2, "repair counter + containers");
        db.forget_task(TaskId(1));
        assert_eq!(
            db.ledger_leftovers().len(),
            1,
            "forget_task clears the database's own records"
        );
        db.write(|_, _, cluster| cluster.free_task(1)).unwrap();
        assert!(db.ledger_leftovers().is_empty());
    }

    #[test]
    fn a_reservation_no_schedule_owns_breaks_the_reservations_clause() {
        let db = db();
        assert_eq!(db.check_invariants(), Ok(()));
        let dl = DirLink::new(flexsched_topo::LinkId(0), Direction::AtoB);
        db.write(|net, _, _| net.reserve(dl, 5.0)).unwrap();
        assert_eq!(db.check_invariants().unwrap_err().0, "reservations");
    }

    #[test]
    fn an_index_entry_no_schedule_owns_breaks_the_ledger_clause() {
        let db = db();
        db.inner.write().link_tasks[0].push(TaskId(3));
        assert_eq!(db.check_invariants().unwrap_err().0, "ledger");
    }

    #[test]
    fn reverse_index_tracks_schedule_lifecycle() {
        use flexsched_sched::{FlexibleMst, NetworkSnapshot, Scheduler};
        let db = db();
        let (topo, task) = db.read(|net, _, _| {
            let topo = net.topo_arc();
            let servers = topo.servers();
            (
                Arc::clone(&topo),
                AiTask {
                    id: TaskId(7),
                    model: ModelProfile::mobilenet(),
                    global_site: servers[0],
                    local_sites: servers[1..=5].to_vec(),
                    data_utility: Default::default(),
                    iterations: 1,
                    comm_budget_ms: 10.0,
                    arrival_ns: 0,
                    class: Default::default(),
                },
            )
        });
        let schedule = db.read(|net, _, _| {
            let snap = NetworkSnapshot::capture(net);
            FlexibleMst::paper()
                .propose_once(&task, &task.local_sites, &snap)
                .unwrap()
                .schedule
        });
        let footprint: Vec<flexsched_topo::LinkId> = {
            let mut set = std::collections::BTreeSet::new();
            for (dl, _) in schedule.reservations(&topo).unwrap() {
                set.insert(dl.link);
            }
            set.into_iter().collect()
        };
        db.store_schedule(schedule.clone());
        for l in &footprint {
            assert_eq!(db.tasks_on_link(*l), vec![TaskId(7)], "link {l}");
        }
        // Links outside the footprint index nothing.
        let outside = (0..topo.link_count() as u32)
            .map(flexsched_topo::LinkId)
            .find(|l| !footprint.contains(l))
            .unwrap();
        assert!(db.tasks_on_link(outside).is_empty());
        // Replacing the schedule re-indexes; taking it clears.
        db.store_schedule(schedule.clone());
        for l in &footprint {
            assert_eq!(db.tasks_on_link(*l), vec![TaskId(7)], "link {l}");
        }
        db.take_schedule(TaskId(7)).unwrap();
        for l in &footprint {
            assert!(db.tasks_on_link(*l).is_empty(), "link {l}");
        }
    }
}
