//! The [`Topology`] container: an undirected multigraph of nodes and links.

use crate::algo::terminal_core::Peel;
use crate::error::TopoError;
use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use crate::node::{Node, NodeKind};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// An undirected multigraph describing the physical network.
///
/// Nodes and links receive dense identifiers in insertion order, so
/// algorithms can use plain vectors indexed by id. Parallel links between a
/// node pair are allowed (fiber pairs / bundles); self-loops are not.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[n] = (neighbor, link) pairs, in link-insertion order.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    /// The peel behind [`crate::algo::terminal_core()`], computed on first
    /// use. Every `&mut` method that can change the graph clears it.
    #[serde(skip)]
    peel: OnceLock<Peel>,
}

/// The graph only: the cached peel is derived from it.
impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("nodes", &self.nodes)
            .field("links", &self.links)
            .field("adjacency", &self.adjacency)
            .finish()
    }
}

impl Topology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node of the given kind, returning its id.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, kind, name));
        self.adjacency.push(Vec::new());
        self.peel.take();
        id
    }

    /// Add an undirected link between `a` and `b`.
    ///
    /// # Errors
    /// [`TopoError::SelfLoop`] if `a == b`; [`TopoError::UnknownNode`] if
    /// either endpoint does not exist.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        length_km: f64,
        capacity_gbps: f64,
    ) -> Result<LinkId> {
        if a == b {
            return Err(TopoError::SelfLoop(a));
        }
        self.check_node(a)?;
        self.check_node(b)?;
        let id = LinkId(self.links.len() as u32);
        self.links
            .push(Link::new(id, a, b, length_km, capacity_gbps));
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        self.peel.take();
        Ok(id)
    }

    /// Add a WDM link with an explicit wavelength count.
    pub fn add_wdm_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        length_km: f64,
        capacity_gbps: f64,
        wavelengths: u16,
    ) -> Result<LinkId> {
        let id = self.add_link(a, b, length_km, capacity_gbps)?;
        self.links[id.index()].wavelengths = wavelengths;
        Ok(id)
    }

    fn check_node(&self, n: NodeId) -> Result<()> {
        if n.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(TopoError::UnknownNode(n))
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Look up a node.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.index()).ok_or(TopoError::UnknownNode(id))
    }

    /// Look up a link.
    pub fn link(&self, id: LinkId) -> Result<&Link> {
        self.links.get(id.index()).ok_or(TopoError::UnknownLink(id))
    }

    /// Tag a node with its fabric region (used by builders to record the
    /// metro site / fat-tree pod / spine-leaf rack each element was built
    /// into).
    pub(crate) fn set_region(&mut self, id: NodeId, region: u32) -> Result<()> {
        self.nodes
            .get_mut(id.index())
            .ok_or(TopoError::UnknownNode(id))?
            .region = Some(region);
        Ok(())
    }

    /// All nodes, in id order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, in id order.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// All link ids, in order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Neighbors of `n` as `(neighbor, link)` pairs, in link insertion order.
    pub fn neighbors(&self, n: NodeId) -> Result<&[(NodeId, LinkId)]> {
        self.adjacency
            .get(n.index())
            .map(Vec::as_slice)
            .ok_or(TopoError::UnknownNode(n))
    }

    /// Ids of all nodes with the given kind.
    pub(crate) fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == kind)
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all server nodes (hosts for AI models).
    pub fn servers(&self) -> Vec<NodeId> {
        self.nodes_of_kind(NodeKind::Server)
    }

    /// The first link connecting `a` and `b`, if any.
    pub fn find_link(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency
            .get(a.index())?
            .iter()
            .find(|(nbr, _)| *nbr == b)
            .map(|(_, l)| *l)
    }

    /// The peel [`crate::algo::terminal_core()`] starts from, computed on
    /// the first call after construction or a mutation.
    pub(crate) fn peel(&self) -> &Peel {
        self.peel.get_or_init(|| Peel::of(self))
    }

    /// Per-traversal latency of a link in nanoseconds: propagation plus the
    /// switching latency of the node being *entered* (`to`).
    ///
    /// # Errors
    /// If the link or node is unknown.
    pub(crate) fn hop_latency_ns(&self, link: LinkId, to: NodeId) -> Result<u64> {
        let l = self.link(link)?;
        let n = self.node(to)?;
        Ok(l.propagation_ns() + n.switch_latency_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Topology, [NodeId; 3], [LinkId; 3]) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let b = t.add_node(NodeKind::IpRouter, "b");
        let c = t.add_node(NodeKind::Roadm, "c");
        let ab = t.add_link(a, b, 1.0, 100.0).unwrap();
        let bc = t.add_link(b, c, 2.0, 100.0).unwrap();
        let ca = t.add_link(c, a, 3.0, 100.0).unwrap();
        (t, [a, b, c], [ab, bc, ca])
    }

    #[test]
    fn dense_ids_in_insertion_order() {
        let (t, [a, b, c], [ab, bc, ca]) = triangle();
        assert_eq!((a, b, c), (NodeId(0), NodeId(1), NodeId(2)));
        assert_eq!((ab, bc, ca), (LinkId(0), LinkId(1), LinkId(2)));
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
    }

    #[test]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        assert_eq!(t.add_link(a, a, 1.0, 1.0), Err(TopoError::SelfLoop(a)));
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let ghost = NodeId(99);
        assert_eq!(
            t.add_link(a, ghost, 1.0, 1.0),
            Err(TopoError::UnknownNode(ghost))
        );
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (t, [a, b, _c], [ab, ..]) = triangle();
        assert!(t.neighbors(a).unwrap().contains(&(b, ab)));
        assert!(t.neighbors(b).unwrap().contains(&(a, ab)));
    }

    #[test]
    fn degree_counts_parallel_links() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let b = t.add_node(NodeKind::Server, "b");
        t.add_link(a, b, 1.0, 1.0).unwrap();
        t.add_link(a, b, 1.0, 1.0).unwrap();
        assert_eq!(t.neighbors(a).unwrap().len(), 2);
        assert_eq!(t.neighbors(b).unwrap().len(), 2);
    }

    #[test]
    fn find_link_returns_first_parallel() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let b = t.add_node(NodeKind::Server, "b");
        let first = t.add_link(a, b, 1.0, 1.0).unwrap();
        let _second = t.add_link(a, b, 1.0, 1.0).unwrap();
        assert_eq!(t.find_link(a, b), Some(first));
        assert_eq!(t.find_link(b, a), Some(first));
    }

    #[test]
    fn nodes_of_kind_filters() {
        let (t, [a, b, c], _) = triangle();
        assert_eq!(t.servers(), vec![a]);
        assert_eq!(t.nodes_of_kind(NodeKind::IpRouter), vec![b]);
        assert_eq!(t.nodes_of_kind(NodeKind::Roadm), vec![c]);
    }

    #[test]
    fn hop_latency_combines_propagation_and_switching() {
        let (t, [_a, b, _c], [ab, ..]) = triangle();
        // 1 km = 5000 ns propagation, entering router b adds 2000 ns.
        assert_eq!(t.hop_latency_ns(ab, b).unwrap(), 7_000);
    }

    #[test]
    fn wdm_link_sets_wavelengths() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Roadm, "a");
        let b = t.add_node(NodeKind::Roadm, "b");
        let l = t.add_wdm_link(a, b, 10.0, 800.0, 8).unwrap();
        assert_eq!(t.link(l).unwrap().wavelengths, 8);
        assert!((t.link(l).unwrap().channel_gbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn total_length_sums_links() {
        let (t, [a, b, c], [ab, bc, ca]) = triangle();
        let round = crate::Path::new(vec![a, b, c, a], vec![ab, bc, ca]).unwrap();
        // 6 km of fiber at 5 us/km, plus the switching of every node entered.
        let switching: u64 = [b, c, a]
            .iter()
            .map(|n| t.node(*n).unwrap().switch_latency_ns)
            .sum();
        assert_eq!(round.latency_ns(&t).unwrap(), 30_000 + switching);
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let (t, _, _) = triangle();
        let json = serde_json_like(&t);
        // Poor-man's check without serde_json: Debug output of a clone must
        // match after a serialize/deserialize through bincode-like manual
        // equality; here we simply verify Clone + PartialEq of parts.
        assert_eq!(json.node_count(), t.node_count());
        assert_eq!(json.link_count(), t.link_count());
    }

    /// Stand-in "round trip" using Clone since no serde data format crate is
    /// whitelisted; the Serialize/Deserialize impls are exercised by the
    /// orchestrator's codec tests instead.
    fn serde_json_like(t: &Topology) -> Topology {
        t.clone()
    }
}
