//! The AI task manager: admission, placement and lifecycle bookkeeping.
//!
//! "An AI task manager is responsible for managing new AI tasks and storing
//! them into database." It also drives container placement through the
//! computing manager so the global/local models exist somewhere before the
//! network is scheduled.

use crate::database::Database;
use crate::Result;
use flexsched_compute::server::ResourceRequest;
use flexsched_compute::{ContainerId, ModelRole};
use flexsched_task::{AiTask, TaskId};
use std::collections::BTreeMap;

/// Admission/lifecycle front-end over the shared database.
#[derive(Debug, Default)]
pub struct AiTaskManager {
    containers: BTreeMap<TaskId, Vec<ContainerId>>,
}

impl AiTaskManager {
    /// A manager with no tasks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admit a task: validate it, store it in the database and place its
    /// containers (global on its global site, one local per local site)
    /// with explicit resource requests (the dockerised testbed packs many
    /// lightweight model containers per server).
    pub fn admit_with(
        &mut self,
        db: &Database,
        task: &AiTask,
        global_req: ResourceRequest,
        local_req: ResourceRequest,
    ) -> Result<()> {
        task.validate().map_err(crate::OrchError::Scheduling)?;
        let placed = db.write(|_, _, cluster| -> Result<Vec<ContainerId>> {
            let mut ids = Vec::with_capacity(task.local_sites.len() + 1);
            ids.push(cluster.place_on(
                task.global_site,
                task.id.0,
                ModelRole::Global,
                global_req,
            )?);
            for site in &task.local_sites {
                match cluster.place_on(*site, task.id.0, ModelRole::Local, local_req) {
                    Ok(id) => ids.push(id),
                    Err(e) => {
                        // Roll back everything placed so far.
                        for placed in ids {
                            let _ = cluster.remove(placed);
                        }
                        return Err(e.into());
                    }
                }
            }
            Ok(ids)
        })?;
        db.admit_task(task.id);
        self.containers.insert(task.id, placed);
        Ok(())
    }

    /// Complete a task: free its containers. The task's database record
    /// is the caller's to drop ([`Database::forget_task`]).
    pub fn complete(&mut self, db: &Database, id: TaskId) -> Result<()> {
        let containers = self
            .containers
            .remove(&id)
            .ok_or(crate::OrchError::UnknownTask(id))?;
        db.write(|_, _, cluster| {
            for c in containers {
                let _ = cluster.remove(c);
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TaskPhase;
    use flexsched_compute::{ClusterManager, ModelProfile, ServerSpec};
    use flexsched_optical::OpticalState;
    use flexsched_simnet::NetworkState;
    use flexsched_topo::builders;
    use std::sync::Arc;

    fn rig() -> (Database, AiTask) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let db = Database::new(
            NetworkState::new(Arc::clone(&topo)),
            OpticalState::new(Arc::clone(&topo)),
            ClusterManager::from_topology(&topo, ServerSpec::default()),
        );
        let servers = topo.servers();
        let task = AiTask {
            id: TaskId(0),
            model: ModelProfile::lenet(),
            global_site: servers[0],
            local_sites: servers[1..4].to_vec(),
            data_utility: Default::default(),
            iterations: 2,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        (db, task)
    }

    /// Admit with the full-size container requests.
    fn admit(mgr: &mut AiTaskManager, db: &Database, task: &AiTask) -> Result<()> {
        mgr.admit_with(
            db,
            task,
            ResourceRequest::global_model(),
            ResourceRequest::local_model(),
        )
    }

    #[test]
    fn admission_places_containers() {
        let (db, task) = rig();
        let mut mgr = AiTaskManager::new();
        admit(&mut mgr, &db, &task).unwrap();
        assert_eq!(mgr.containers[&task.id].len(), 4); // 1 global + 3 locals
        assert_eq!(db.count_phase(TaskPhase::Pending), 1);
        db.read(|_, _, cluster| {
            assert_eq!(cluster.container_count(), 4);
        });
    }

    #[test]
    fn completion_frees_containers() {
        let (db, task) = rig();
        let mut mgr = AiTaskManager::new();
        admit(&mut mgr, &db, &task).unwrap();
        mgr.complete(&db, task.id).unwrap();
        db.read(|_, _, cluster| {
            assert_eq!(cluster.container_count(), 0);
        });
        assert_eq!(
            db.count_phase(TaskPhase::Pending),
            1,
            "record left as placed"
        );
        db.forget_task(task.id);
        assert!(db.ledger_leftovers().is_empty());
    }

    #[test]
    fn invalid_task_is_rejected() {
        let (db, mut task) = rig();
        task.local_sites.clear();
        let mut mgr = AiTaskManager::new();
        assert!(admit(&mut mgr, &db, &task).is_err());
        assert_eq!(db.count_phase(TaskPhase::Pending), 0);
    }

    #[test]
    fn placement_failure_rolls_back() {
        let (db, mut task) = rig();
        // Point a local site at a non-server node: placement must fail.
        task.local_sites[0] = flexsched_topo::NodeId(0); // a ROADM
        task.data_utility.clear();
        let mut mgr = AiTaskManager::new();
        assert!(admit(&mut mgr, &db, &task).is_err());
        db.read(|_, _, cluster| {
            assert_eq!(cluster.container_count(), 0, "rollback leaked containers");
        });
    }

    #[test]
    fn completing_unknown_task_errors() {
        let (db, _) = rig();
        let mut mgr = AiTaskManager::new();
        assert!(mgr.complete(&db, TaskId(5)).is_err());
    }
}
