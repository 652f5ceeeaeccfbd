//! The AI task manager: validation and container placement.
//!
//! "An AI task manager is responsible for managing new AI tasks and storing
//! them into database." It holds no state of its own: it validates a task
//! and has the computing manager place the task's global and local models
//! before the network is scheduled. The replicas are recorded once, in the
//! database's [`ClusterManager`](flexsched_compute::ClusterManager), under
//! the task's id.

use crate::database::Database;
use crate::Result;
use flexsched_compute::server::ResourceRequest;
use flexsched_task::{AiTask, TaskId};

/// Admission/lifecycle front-end over the shared database.
#[derive(Debug, Default, Clone, Copy)]
pub struct AiTaskManager;

impl AiTaskManager {
    /// The task manager.
    pub fn new() -> Self {
        AiTaskManager
    }

    /// Admit a task: validate it and place its containers, all or nothing
    /// (global on its global site, one local per local site), with
    /// explicit resource requests (the dockerised testbed packs many
    /// lightweight model containers per server).
    pub fn admit_with(
        &self,
        db: &Database,
        task: &AiTask,
        global_req: ResourceRequest,
        local_req: ResourceRequest,
    ) -> Result<()> {
        task.validate().map_err(crate::OrchError::Scheduling)?;
        let replicas = std::iter::once((task.global_site, global_req))
            .chain(task.local_sites.iter().map(|&site| (site, local_req)))
            .collect();
        db.write(|_, _, cluster| cluster.place_task(task.id.0, replicas))?;
        Ok(())
    }

    /// Complete a task: free its containers. The task's database records
    /// are the caller's to drop ([`Database::forget_task`]).
    pub fn complete(&self, db: &Database, id: TaskId) -> Result<()> {
        // Freeing fails only for a task with nothing placed.
        db.write(|_, _, cluster| cluster.free_task(id.0))
            .map_err(|_| crate::OrchError::UnknownTask(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_compute::{ClusterManager, ComputeError, ModelProfile, ServerSpec};
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
    fn admit(db: &Database, task: &AiTask) -> Result<()> {
        AiTaskManager::new().admit_with(
            db,
            task,
            ResourceRequest::global_model(),
            ResourceRequest::local_model(),
        )
    }

    /// Containers placed on the database's cluster.
    fn containers(db: &Database) -> usize {
        db.read(|_, _, cluster| cluster.container_count())
    }

    #[test]
    fn admission_places_containers() {
        let (db, task) = rig();
        admit(&db, &task).unwrap();
        assert_eq!(containers(&db), 4); // 1 global + 3 locals
        db.read(|_, _, cluster| {
            let global = cluster.server(task.global_site).unwrap();
            assert_eq!((global.containers, global.used_gpus), (1, 0.0));
            for site in &task.local_sites {
                assert_eq!(cluster.server(*site).unwrap().used_gpus, 1.0);
            }
        });
    }

    #[test]
    fn completion_frees_containers() {
        let (db, task) = rig();
        admit(&db, &task).unwrap();
        AiTaskManager::new().complete(&db, task.id).unwrap();
        assert_eq!(containers(&db), 0);
        assert!(db.ledger_leftovers().is_empty());
    }

    #[test]
    fn invalid_task_is_rejected() {
        let (db, mut task) = rig();
        task.local_sites.clear();
        assert!(admit(&db, &task).is_err());
        assert_eq!(containers(&db), 0);
    }

    #[test]
    fn placement_failure_rolls_back() {
        let (db, mut task) = rig();
        // Point a local site at a non-server node: placement must fail.
        task.local_sites[2] = flexsched_topo::NodeId(0); // a ROADM
        task.data_utility.clear();
        assert!(matches!(
            admit(&db, &task),
            Err(crate::OrchError::Compute(ComputeError::UnknownServer(_)))
        ));
        assert_eq!(containers(&db), 0, "rollback leaked containers");
        db.read(|_, _, cluster| assert_eq!(cluster.check_invariants(), Ok(())));
    }

    #[test]
    fn completing_unknown_task_errors() {
        let (db, _) = rig();
        assert!(matches!(
            AiTaskManager::new().complete(&db, TaskId(5)),
            Err(crate::OrchError::UnknownTask(TaskId(5)))
        ));
    }
}
