//! The computing manager: container placement over the server fleet.

use crate::error::ComputeError;
use crate::server::{ResourceRequest, ServerSpec, ServerState};
use crate::Result;
use flexsched_topo::NodeId;
use std::collections::BTreeMap;

/// The computing manager from Figure 2: tracks every server and, under each
/// task's id, the `(server, request)` pair of every replica placed for it.
#[derive(Debug, Clone, Default)]
pub struct ClusterManager {
    servers: BTreeMap<NodeId, ServerState>,
    tasks: BTreeMap<u64, Vec<(NodeId, ResourceRequest)>>,
}

impl ClusterManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register every server node of `topo` with the same spec.
    pub fn from_topology(topo: &flexsched_topo::Topology, spec: ServerSpec) -> Self {
        let mut m = Self::new();
        for s in topo.servers() {
            m.register_server(s, spec.clone());
        }
        m
    }

    /// Register (or replace) a server.
    pub(crate) fn register_server(&mut self, node: NodeId, spec: ServerSpec) {
        self.servers.insert(node, ServerState::new(spec));
    }

    /// Read a server's state.
    pub fn server(&self, node: NodeId) -> Result<&ServerState> {
        self.servers
            .get(&node)
            .ok_or(ComputeError::UnknownServer(node))
    }

    /// Place every replica of `task`, each on the server it names, in the
    /// order given — all or nothing: a replica that does not fit releases
    /// the ones already claimed, in placement order, and nothing is
    /// recorded. Placing more replicas for a placed task adds to them.
    pub fn place_task(
        &mut self,
        task: u64,
        replicas: Vec<(NodeId, ResourceRequest)>,
    ) -> Result<()> {
        for (at, (node, req)) in replicas.iter().enumerate() {
            let refused = match self.servers.get_mut(node) {
                None => ComputeError::UnknownServer(*node),
                Some(server) if !server.fits(req) => ComputeError::ServerFull(*node),
                Some(server) => {
                    server.claim(req);
                    continue;
                }
            };
            self.release(&replicas[..at]);
            return Err(refused);
        }
        self.tasks.entry(task).or_default().extend(replicas);
        Ok(())
    }

    /// Free every replica placed for `task`, in placement order.
    pub fn free_task(&mut self, task: u64) -> Result<()> {
        let replicas = self
            .tasks
            .remove(&task)
            .ok_or(ComputeError::UnknownTask(task))?;
        self.release(&replicas);
        Ok(())
    }

    /// Return each replica's resources to its server.
    fn release(&mut self, replicas: &[(NodeId, ResourceRequest)]) {
        for (node, req) in replicas {
            if let Some(server) = self.servers.get_mut(node) {
                server.release(req);
            }
        }
    }

    /// Total active containers.
    pub fn container_count(&self) -> usize {
        self.tasks.values().map(Vec::len).sum()
    }

    /// The `cluster` clause of the state invariant: each server's used cpu,
    /// gpu and memory (±1e-6) and container count sum the replicas placed
    /// on it.
    pub fn check_invariants(&self) -> std::result::Result<(), (&'static str, String)> {
        let mut placed = self.servers.clone();
        for s in placed.values_mut() {
            *s = ServerState::new(s.spec.clone());
        }
        for (node, req) in self.tasks.values().flatten() {
            if let Some(s) = placed.get_mut(node) {
                s.claim(req);
            }
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6;
        for ((node, s), w) in self.servers.iter().zip(placed.values()) {
            if s.containers != w.containers
                || !close(s.used_cpu, w.used_cpu)
                || !close(s.used_gpus, w.used_gpus)
                || !close(s.used_mem, w.used_mem)
            {
                return Err(("cluster", format!("{node}: {s:?}, replicas sum to {w:?}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::builders;

    /// Place task `task` as one replica on `node`.
    fn place(m: &mut ClusterManager, node: NodeId, task: u64, req: ResourceRequest) -> Result<()> {
        m.place_task(task, vec![(node, req)])
    }

    /// Every server's (cpu, gpu, memory) in use, in node order.
    fn usage(m: &ClusterManager) -> Vec<[f64; 3]> {
        m.servers
            .values()
            .map(|s| [s.used_cpu, s.used_gpus, s.used_mem])
            .collect()
    }

    #[test]
    fn registers_every_topology_server() {
        let topo = builders::metro(&builders::MetroParams::default());
        let m = ClusterManager::from_topology(&topo, ServerSpec::default());
        assert_eq!(topo.servers().len(), 24); // 6 routers * 4 servers
        assert_eq!(m.servers.len(), 24);
        assert!(topo.servers().iter().all(|s| m.server(*s).is_ok()));
    }

    #[test]
    fn first_fit_packs_one_server_first() {
        let topo = builders::metro(&builders::MetroParams::default());
        let mut m = ClusterManager::from_topology(&topo, ServerSpec::default());
        let first = topo.servers()[0];
        for i in 0..2 {
            place(&mut m, first, i, ResourceRequest::local_model()).unwrap();
            assert_eq!(m.tasks[&i], [(first, ResourceRequest::local_model())]);
        }
        let server = m.server(first).unwrap();
        assert_eq!(
            (server.containers, server.used_gpus),
            (2, 2.0),
            "two 1-GPU jobs fit the first 2-GPU server"
        );
    }

    #[test]
    fn capacity_exhaustion_errors() {
        // Four 8-core aggregators use all 32 cores; a fifth is refused
        // although no GPU is taken.
        let mut m = ClusterManager::new();
        m.register_server(NodeId(0), ServerSpec::default());
        let req = ResourceRequest::global_model();
        for task in 0..4 {
            place(&mut m, NodeId(0), task, req).unwrap();
        }
        assert_eq!(m.server(NodeId(0)).unwrap().used_gpus, 0.0);
        let err = place(&mut m, NodeId(0), 4, req).unwrap_err();
        assert!(matches!(err, ComputeError::ServerFull(NodeId(0))));
        assert_eq!(m.container_count(), 4, "a refused placement claims nothing");
    }

    #[test]
    fn remove_returns_resources() {
        let mut m = ClusterManager::new();
        m.register_server(NodeId(0), ServerSpec::default());
        place(&mut m, NodeId(0), 0, ResourceRequest::local_model()).unwrap();
        assert_eq!(m.container_count(), 1);
        m.free_task(0).unwrap();
        assert_eq!(m.container_count(), 0);
        assert_eq!(
            *m.server(NodeId(0)).unwrap(),
            ServerState::new(ServerSpec::default())
        );
        assert_eq!(m.free_task(0), Err(ComputeError::UnknownTask(0)));
    }

    #[test]
    fn a_task_refused_on_a_later_replica_claims_nothing() {
        let topo = builders::metro(&builders::MetroParams::default());
        let servers = topo.servers();
        let mut m = ClusterManager::from_topology(&topo, ServerSpec::default());
        // Fractional shares, as the drivers request, so claim-then-release
        // rounds; six of them leave `servers[2]` 0.2 GPU free.
        let global = ResourceRequest {
            cpu_cores: 1.0,
            gpus: 0.0,
            mem_gib: 4.0,
        };
        let local = ResourceRequest {
            cpu_cores: 0.5,
            gpus: 0.3,
            mem_gib: 4.0,
        };
        for task in 0..6 {
            let replicas = vec![
                (servers[0], global),
                (servers[1], local),
                (servers[2], local),
            ];
            m.place_task(task, replicas).unwrap();
        }
        let before = usage(&m);
        let replicas = vec![
            (servers[0], global),
            (servers[3], local),
            (servers[2], local),
        ];
        assert_eq!(
            m.place_task(6, replicas),
            Err(ComputeError::ServerFull(servers[2]))
        );
        assert_eq!(m.container_count(), 18, "a refused task places nothing");
        for (was, is) in before.iter().zip(usage(&m)) {
            assert!(was.iter().zip(is).all(|(a, b)| (a - b).abs() <= 1e-9));
        }
        assert_eq!(m.check_invariants(), Ok(()));
        assert!(m.free_task(6).is_err(), "the refused task was never placed");

        for task in 0..6 {
            m.free_task(task).unwrap();
        }
        assert_eq!(m.container_count(), 0);
        assert!(usage(&m).iter().flatten().all(|u| u.abs() <= 1e-9));
        assert!(m.servers.values().all(|s| s.containers == 0));
    }

    #[test]
    fn a_claim_no_container_holds_breaks_the_cluster_clause() {
        let mut m = ClusterManager::new();
        m.register_server(NodeId(0), ServerSpec::default());
        place(&mut m, NodeId(0), 0, ResourceRequest::local_model()).unwrap();
        assert_eq!(m.check_invariants(), Ok(()));
        m.servers.get_mut(&NodeId(0)).unwrap().used_gpus += 1.0;
        assert_eq!(m.check_invariants().unwrap_err().0, "cluster");
    }

    #[test]
    fn unknown_lookups_error() {
        let mut m = ClusterManager::new();
        assert!(m.server(NodeId(1)).is_err());
        assert!(m.free_task(1).is_err());
        assert!(matches!(
            place(&mut m, NodeId(1), 0, ResourceRequest::local_model()),
            Err(ComputeError::UnknownServer(NodeId(1)))
        ));
    }
}
