//! Node model: the three element classes of the paper's testbed.
//!
//! Figure 2 of the poster shows reconfigurable optical add/drop multiplexers
//! (ROADMs) and IP routers doing traffic switching and grooming, plus servers
//! (Linux + Docker) hosting the AI models. [`NodeKind`] captures exactly those
//! three roles; scheduling and placement logic in higher crates keys off it.

use crate::ids::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The role a node plays in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Reconfigurable optical add/drop multiplexer: switches wavelengths,
    /// cannot terminate IP traffic and cannot host compute.
    Roadm,
    /// IP router: terminates/grooms IP traffic, can aggregate model updates
    /// in-network, but hosts no AI workloads itself.
    IpRouter,
    /// Server: hosts containers that run global or local AI models. Servers
    /// can also aggregate updates (they run the aggregation operator locally).
    Server,
}

impl NodeKind {
    /// Whether in-network aggregation of model updates may run on this node.
    ///
    /// The flexible scheduler places aggregation "in the middle and final
    /// nodes of the upload procedure"; electronically-terminating nodes
    /// (routers and servers) can do this, all-optical ROADMs cannot.
    #[inline]
    pub fn can_aggregate(self) -> bool {
        matches!(self, NodeKind::IpRouter | NodeKind::Server)
    }

    /// Whether the node switches traffic all-optically (wavelength granular).
    #[inline]
    pub fn is_optical(self) -> bool {
        matches!(self, NodeKind::Roadm)
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Roadm => "roadm",
            NodeKind::IpRouter => "router",
            NodeKind::Server => "server",
        };
        f.write_str(s)
    }
}

/// A physical node of the topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Dense identifier assigned by the topology.
    pub id: NodeId,
    /// Role of this node.
    pub kind: NodeKind,
    /// Human-readable name (unique within a topology by convention, not
    /// enforcement).
    pub name: String,
    /// Fixed electronic processing latency added per traversal, in
    /// nanoseconds. ROADMs switch in the optical domain and typically carry
    /// a near-zero value here; routers carry store-and-forward lookup cost.
    pub switch_latency_ns: u64,
    /// Fabric region this node belongs to: the metro site, fat-tree pod or
    /// spine-leaf rack it was built into. `None` for region-less elements
    /// (fat-tree cores, spine switches) and hand-built topologies.
    #[serde(default)]
    pub region: Option<u32>,
}

impl Node {
    /// Create a node. `id` is normally assigned via [`crate::Topology::add_node`].
    pub(crate) fn new(id: NodeId, kind: NodeKind, name: impl Into<String>) -> Self {
        let switch_latency_ns = match kind {
            NodeKind::Roadm => 50,       // optical switching, negligible
            NodeKind::IpRouter => 2_000, // lookup + queue admission
            NodeKind::Server => 3_000,   // NIC + kernel/SmartNIC path
        };
        Node {
            id,
            kind,
            name: name.into(),
            switch_latency_ns,
            region: None,
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}:{})", self.name, self.kind, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_capability_matches_roles() {
        assert!(!NodeKind::Roadm.can_aggregate());
        assert!(NodeKind::IpRouter.can_aggregate());
        assert!(NodeKind::Server.can_aggregate());
    }

    #[test]
    fn only_servers_host_compute() {
        let mut t = crate::Topology::new();
        t.add_node(NodeKind::Roadm, "r");
        t.add_node(NodeKind::IpRouter, "ip");
        let s = t.add_node(NodeKind::Server, "s");
        assert_eq!(t.servers(), vec![s]);
    }

    #[test]
    fn only_roadms_are_optical() {
        assert!(NodeKind::Roadm.is_optical());
        assert!(!NodeKind::IpRouter.is_optical());
        assert!(!NodeKind::Server.is_optical());
    }

    #[test]
    fn default_switch_latency_reflects_kind() {
        let roadm = Node::new(NodeId(0), NodeKind::Roadm, "r0");
        let router = Node::new(NodeId(1), NodeKind::IpRouter, "ip0");
        let server = Node::new(NodeId(2), NodeKind::Server, "s0");
        assert!(roadm.switch_latency_ns < router.switch_latency_ns);
        assert!(router.switch_latency_ns <= server.switch_latency_ns);
    }

    #[test]
    fn region_tag_defaults_to_none_and_applies() {
        let mut t = crate::Topology::new();
        let s = t.add_node(NodeKind::Server, "s");
        assert_eq!(t.node(s).unwrap().region, None);
        t.set_region(s, 3).unwrap();
        assert_eq!(t.node(s).unwrap().region, Some(3));
    }

    #[test]
    fn display_contains_name_kind_and_id() {
        let n = Node::new(NodeId(4), NodeKind::IpRouter, "core-1");
        assert_eq!(n.to_string(), "core-1(router:n4)");
    }
}
