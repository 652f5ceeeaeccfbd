//! The computing manager: container placement over the server fleet.

use crate::container::{Container, ContainerId, ModelRole};
use crate::error::ComputeError;
use crate::model::ModelProfile;
use crate::server::{ResourceRequest, ServerSpec, ServerState};
use crate::Result;
use flexsched_topo::NodeId;
use std::collections::BTreeMap;

/// Placement policies for new containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Lowest node id that fits — the "first fit" of the SPFF baseline.
    FirstFit,
    /// The fitting server whose remaining headroom after placement is
    /// smallest (tight packing).
    BestFit,
    /// The fitting server with the lowest current load.
    LeastLoaded,
    /// Round-robin-ish spread: the fitting server hosting the fewest
    /// containers.
    Spread,
}

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

    /// Choose a server for `req` under `policy` (no mutation).
    pub fn choose(&self, req: &ResourceRequest, policy: PlacementPolicy) -> Result<NodeId> {
        let fitting = self
            .servers
            .iter()
            .filter(|(_, s)| s.fits(req))
            .collect::<Vec<_>>();
        let chosen = match policy {
            PlacementPolicy::FirstFit => fitting.first().map(|(n, _)| **n),
            PlacementPolicy::BestFit => fitting
                .iter()
                .min_by(|(na, a), (nb, b)| {
                    let ha = a.headroom();
                    let hb = b.headroom();
                    ha.partial_cmp(&hb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(na.cmp(nb))
                })
                .map(|(n, _)| **n),
            PlacementPolicy::LeastLoaded => fitting
                .iter()
                .min_by(|(na, a), (nb, b)| {
                    a.load()
                        .partial_cmp(&b.load())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(na.cmp(nb))
                })
                .map(|(n, _)| **n),
            PlacementPolicy::Spread => fitting
                .iter()
                .min_by_key(|(n, s)| (s.containers, **n))
                .map(|(n, _)| **n),
        };
        chosen.ok_or(ComputeError::NoCapacity {
            gpus: req.gpus,
            cpu_cores: req.cpu_cores,
            mem_gib: req.mem_gib,
        })
    }

    /// Place a container on a specific server.
    pub fn place_on(
        &mut self,
        node: NodeId,
        task: u64,
        role: ModelRole,
        model: ModelProfile,
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
                model,
                resources: req,
            },
        );
        Ok(id)
    }

    /// Place a container under `policy`, returning its id.
    pub fn place(
        &mut self,
        task: u64,
        role: ModelRole,
        model: ModelProfile,
        req: ResourceRequest,
        policy: PlacementPolicy,
    ) -> Result<ContainerId> {
        let node = self.choose(&req, policy)?;
        self.place_on(node, task, role, model, req)
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

    /// Read a container record.
    pub fn container(&self, id: ContainerId) -> Result<&Container> {
        self.containers
            .get(&id)
            .ok_or(ComputeError::UnknownContainer(id))
    }

    /// Total active containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::builders;

    fn manager() -> ClusterManager {
        let topo = builders::metro(&builders::MetroParams::default());
        ClusterManager::from_topology(&topo, ServerSpec::default())
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
    fn first_fit_picks_lowest_id() {
        let mut m = manager();
        let id = m
            .place(
                1,
                ModelRole::Local,
                ModelProfile::lenet(),
                ResourceRequest::local_model(),
                PlacementPolicy::FirstFit,
            )
            .unwrap();
        let first_server = *m.servers.keys().next().unwrap();
        assert_eq!(m.container(id).unwrap().server, first_server);
    }

    #[test]
    fn spread_distributes_across_servers() {
        let mut m = manager();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..8 {
            let id = m
                .place(
                    i,
                    ModelRole::Local,
                    ModelProfile::lenet(),
                    ResourceRequest::local_model(),
                    PlacementPolicy::Spread,
                )
                .unwrap();
            seen.insert(m.container(id).unwrap().server);
        }
        assert_eq!(seen.len(), 8, "spread must use 8 distinct servers");
    }

    #[test]
    fn first_fit_packs_one_server_first() {
        let mut m = manager();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..2 {
            let id = m
                .place(
                    i,
                    ModelRole::Local,
                    ModelProfile::lenet(),
                    ResourceRequest::local_model(),
                    PlacementPolicy::FirstFit,
                )
                .unwrap();
            seen.insert(m.container(id).unwrap().server);
        }
        assert_eq!(seen.len(), 1, "two 1-GPU jobs fit the first 2-GPU server");
    }

    #[test]
    fn capacity_exhaustion_errors() {
        let mut m = ClusterManager::new();
        m.register_server(NodeId(0), ServerSpec::default()); // 2 GPUs
        let req = ResourceRequest::local_model();
        m.place(
            0,
            ModelRole::Local,
            ModelProfile::lenet(),
            req,
            PlacementPolicy::FirstFit,
        )
        .unwrap();
        m.place(
            0,
            ModelRole::Local,
            ModelProfile::lenet(),
            req,
            PlacementPolicy::FirstFit,
        )
        .unwrap();
        let err = m
            .place(
                0,
                ModelRole::Local,
                ModelProfile::lenet(),
                req,
                PlacementPolicy::FirstFit,
            )
            .unwrap_err();
        assert!(matches!(err, ComputeError::NoCapacity { .. }));
    }

    #[test]
    fn remove_returns_resources() {
        let mut m = ClusterManager::new();
        m.register_server(NodeId(0), ServerSpec::default());
        let req = ResourceRequest::local_model();
        let id = m
            .place(
                0,
                ModelRole::Local,
                ModelProfile::lenet(),
                req,
                PlacementPolicy::FirstFit,
            )
            .unwrap();
        assert_eq!(m.container_count(), 1);
        m.remove(id).unwrap();
        assert_eq!(m.container_count(), 0);
        assert_eq!(m.server(NodeId(0)).unwrap().load(), 0.0);
    }

    #[test]
    fn place_on_rejects_full_server() {
        let mut m = ClusterManager::new();
        m.register_server(NodeId(0), ServerSpec::default());
        let req = ResourceRequest::local_model();
        m.place_on(NodeId(0), 0, ModelRole::Local, ModelProfile::lenet(), req)
            .unwrap();
        m.place_on(NodeId(0), 0, ModelRole::Local, ModelProfile::lenet(), req)
            .unwrap();
        assert!(matches!(
            m.place_on(NodeId(0), 0, ModelRole::Local, ModelProfile::lenet(), req),
            Err(ComputeError::ServerFull(_))
        ));
    }

    #[test]
    fn unknown_lookups_error() {
        let m = ClusterManager::new();
        assert!(m.server(NodeId(1)).is_err());
        assert!(m.container(ContainerId(1)).is_err());
    }
}
