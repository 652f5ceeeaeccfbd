//! The computing manager: container placement over the server fleet.

use crate::container::{Container, ContainerId, ModelRole};
use crate::error::ComputeError;
use crate::server::{ResourceRequest, ServerSpec, ServerState};
use crate::Result;
use flexsched_topo::NodeId;
use std::collections::BTreeMap;

/// The computing manager from Figure 2: tracks every server and container.
#[derive(Debug, Clone, Default)]
pub struct ClusterManager {
    servers: BTreeMap<NodeId, ServerState>,
    containers: BTreeMap<ContainerId, Container>,
    next_id: u64,
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

    /// Place a container on a specific server.
    pub fn place_on(
        &mut self,
        node: NodeId,
        task: u64,
        role: ModelRole,
        req: ResourceRequest,
    ) -> Result<ContainerId> {
        let server = self
            .servers
            .get_mut(&node)
            .ok_or(ComputeError::UnknownServer(node))?;
        if !server.fits(&req) {
            return Err(ComputeError::ServerFull(node));
        }
        server.claim(&req);
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        self.containers.insert(
            id,
            Container {
                id,
                server: node,
                task,
                role,
                resources: req,
            },
        );
        Ok(id)
    }

    /// Remove a container, returning its record.
    pub fn remove(&mut self, id: ContainerId) -> Result<Container> {
        let c = self
            .containers
            .remove(&id)
            .ok_or(ComputeError::UnknownContainer(id))?;
        if let Some(server) = self.servers.get_mut(&c.server) {
            server.release(&c.resources);
        }
        Ok(c)
    }

    /// Total active containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// The `cluster` clause of the state invariant: each server's used cpu,
    /// gpu and memory (±1e-6) and container count sum its containers.
    pub fn check_invariants(&self) -> std::result::Result<(), (&'static str, String)> {
        let mut placed = self.servers.clone();
        for s in placed.values_mut() {
            *s = ServerState::new(s.spec.clone());
        }
        for c in self.containers.values() {
            if let Some(s) = placed.get_mut(&c.server) {
                s.claim(&c.resources);
            }
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6;
        for ((node, s), w) in self.servers.iter().zip(placed.values()) {
            if s.containers != w.containers
                || !close(s.used_cpu, w.used_cpu)
                || !close(s.used_gpus, w.used_gpus)
                || !close(s.used_mem, w.used_mem)
            {
                return Err(("cluster", format!("{node}: {s:?}, containers sum to {w:?}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::builders;

    /// Place one container of task `task` on `node`.
    fn place(
        m: &mut ClusterManager,
        node: NodeId,
        task: u64,
        req: ResourceRequest,
    ) -> Result<ContainerId> {
        m.place_on(node, task, ModelRole::Local, req)
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
            let id = place(&mut m, first, i, ResourceRequest::local_model()).unwrap();
            assert_eq!(m.containers[&id].server, first);
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
        let id = place(&mut m, NodeId(0), 0, ResourceRequest::local_model()).unwrap();
        assert_eq!(m.container_count(), 1);
        m.remove(id).unwrap();
        assert_eq!(m.container_count(), 0);
        assert_eq!(
            *m.server(NodeId(0)).unwrap(),
            ServerState::new(ServerSpec::default())
        );
        assert!(matches!(
            m.remove(id),
            Err(ComputeError::UnknownContainer(_))
        ));
    }

    #[test]
    fn place_on_rejects_full_server() {
        let mut m = ClusterManager::new();
        m.register_server(NodeId(0), ServerSpec::default());
        let req = ResourceRequest::local_model();
        place(&mut m, NodeId(0), 0, req).unwrap();
        place(&mut m, NodeId(0), 0, req).unwrap();
        assert!(matches!(
            place(&mut m, NodeId(0), 0, req),
            Err(ComputeError::ServerFull(_))
        ));
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
        assert!(m.remove(ContainerId(1)).is_err());
        assert!(matches!(
            place(&mut m, NodeId(1), 0, ResourceRequest::local_model()),
            Err(ComputeError::UnknownServer(NodeId(1)))
        ));
    }
}
