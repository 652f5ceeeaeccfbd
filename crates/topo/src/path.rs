//! Path representation: an alternating node/link walk through the topology.

use crate::error::TopoError;
use crate::ids::{LinkId, NodeId};
use crate::Result;
use crate::Topology;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple path through the topology.
///
/// Invariant (checked by [`Path::validate`]): `links.len() + 1 == nodes.len()`
/// and `links[i]` connects `nodes[i]` to `nodes[i + 1]`. A single-node path
/// (empty `links`) represents "source equals destination".
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    /// Visited nodes, source first.
    pub nodes: Vec<NodeId>,
    /// Traversed links; `links[i]` joins `nodes[i]` and `nodes[i+1]`.
    pub links: Vec<LinkId>,
}

impl Path {
    /// A trivial path that starts and ends at `n`.
    pub fn trivial(n: NodeId) -> Self {
        Path {
            nodes: vec![n],
            links: Vec::new(),
        }
    }

    /// Construct from parts, validating the alternation invariant length-wise.
    pub fn new(nodes: Vec<NodeId>, links: Vec<LinkId>) -> Result<Self> {
        if nodes.is_empty() {
            return Err(TopoError::EmptyInput("path nodes"));
        }
        if links.len() + 1 != nodes.len() {
            return Err(TopoError::EmptyInput("path links/nodes length mismatch"));
        }
        Ok(Path { nodes, links })
    }

    /// Source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    #[inline]
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }

    /// Number of hops (links traversed).
    #[inline]
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Whether this path visits no node twice (node-simple).
    pub(crate) fn is_node_simple(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.nodes.iter().all(|n| seen.insert(*n))
    }

    /// Check structural consistency against a topology: every `links[i]` must
    /// actually connect `nodes[i]` and `nodes[i+1]`.
    pub fn validate(&self, topo: &Topology) -> Result<()> {
        for (i, l) in self.links.iter().enumerate() {
            let link = topo.link(*l)?;
            if !link.connects(self.nodes[i], self.nodes[i + 1]) {
                return Err(TopoError::UnknownLink(*l));
            }
        }
        Ok(())
    }

    /// End-to-end latency in nanoseconds: per-hop propagation plus the
    /// switching latency of every node *entered* (i.e. all but the source).
    pub fn latency_ns(&self, topo: &Topology) -> Result<u64> {
        let mut total = 0u64;
        for (i, l) in self.links.iter().enumerate() {
            total += topo.hop_latency_ns(*l, self.nodes[i + 1])?;
        }
        Ok(total)
    }

    /// Reverse the path in place (walks the same links backwards).
    pub fn reverse(&mut self) {
        self.nodes.reverse();
        self.links.reverse();
    }

    /// A reversed copy of the path.
    pub fn reversed(&self) -> Self {
        let mut p = self.clone();
        p.reverse();
        p
    }

    /// Concatenate `other` onto the end of this path. `other.source()` must
    /// equal `self.destination()`.
    pub(crate) fn join(&self, other: &Path) -> Result<Path> {
        if self.destination() != other.source() {
            return Err(TopoError::Disconnected {
                from: self.destination(),
                to: other.source(),
            });
        }
        let mut nodes = self.nodes.clone();
        nodes.extend_from_slice(&other.nodes[1..]);
        let mut links = self.links.clone();
        links.extend_from_slice(&other.links);
        Ok(Path { nodes, links })
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, "->")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    fn line() -> (Topology, Vec<NodeId>, Vec<LinkId>) {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..4)
            .map(|i| t.add_node(NodeKind::IpRouter, format!("r{i}")))
            .collect();
        let links: Vec<LinkId> = (0..3)
            .map(|i| t.add_link(nodes[i], nodes[i + 1], 1.0, 100.0).unwrap())
            .collect();
        (t, nodes, links)
    }

    #[test]
    fn construction_checks_lengths() {
        assert!(Path::new(vec![], vec![]).is_err());
        assert!(Path::new(vec![NodeId(0)], vec![LinkId(0)]).is_err());
        assert!(Path::new(vec![NodeId(0)], vec![]).is_ok());
    }

    #[test]
    fn endpoints_and_hops() {
        let (_, n, l) = line();
        let p = Path::new(n.clone(), l).unwrap();
        assert_eq!(p.source(), n[0]);
        assert_eq!(p.destination(), n[3]);
        assert_eq!(p.hop_count(), 3);
    }

    #[test]
    fn trivial_path_has_zero_cost() {
        let (t, n, _) = line();
        let p = Path::trivial(n[0]);
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.latency_ns(&t).unwrap(), 0);
    }

    #[test]
    fn latency_accumulates_per_hop() {
        let (t, n, l) = line();
        let p = Path::new(n, l).unwrap();
        // Each hop: 1 km (5000 ns) + router entry (2000 ns) = 7000 ns.
        assert_eq!(p.latency_ns(&t).unwrap(), 21_000);
    }

    #[test]
    fn validate_detects_wrong_link() {
        let (t, n, l) = line();
        // Swap two links so links no longer connect consecutive nodes.
        let bad = Path::new(n, vec![l[1], l[0], l[2]]).unwrap();
        assert!(bad.validate(&t).is_err());
    }

    #[test]
    fn validate_accepts_correct_path() {
        let (t, n, l) = line();
        let p = Path::new(n, l).unwrap();
        p.validate(&t).unwrap();
    }

    #[test]
    fn reverse_swaps_endpoints() {
        let (t, n, l) = line();
        let p = Path::new(n.clone(), l).unwrap();
        let r = p.reversed();
        assert_eq!(r.source(), n[3]);
        assert_eq!(r.destination(), n[0]);
        r.validate(&t).unwrap();
        assert_eq!(p.latency_ns(&t).unwrap(), 21_000);
    }

    #[test]
    fn join_requires_shared_endpoint() {
        let (_, n, l) = line();
        let p1 = Path::new(n[..2].to_vec(), l[..1].to_vec()).unwrap();
        let p2 = Path::new(n[1..].to_vec(), l[1..].to_vec()).unwrap();
        let joined = p1.join(&p2).unwrap();
        assert_eq!(joined.hop_count(), 3);
        assert_eq!(joined.source(), n[0]);
        assert_eq!(joined.destination(), n[3]);
        assert!(p2.join(&p1).is_err());
    }

    #[test]
    fn simplicity_checks() {
        let (_, n, l) = line();
        let p = Path::new(n.clone(), l.clone()).unwrap();
        assert!(p.is_node_simple());
        let back_and_forth = Path::new(vec![n[0], n[1], n[0]], vec![l[0], l[0]]).unwrap();
        assert!(!back_and_forth.is_node_simple());
    }

    #[test]
    fn display_renders_chain() {
        let (_, n, l) = line();
        let p = Path::new(n[..2].to_vec(), l[..1].to_vec()).unwrap();
        assert_eq!(p.to_string(), "n0->n1");
    }
}
