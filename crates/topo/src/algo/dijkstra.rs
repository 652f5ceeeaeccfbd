//! Dijkstra shortest paths with deterministic tie-breaking.

use crate::algo::scratch::DijkstraScratch;
use crate::error::TopoError;
use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use crate::path::Path;
use crate::Result;
use crate::Topology;

/// The result of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// The source node.
    pub source: NodeId,
    /// `dist[n]` = cost of the cheapest path from the source, or
    /// `f64::INFINITY` if unreachable.
    pub dist: Vec<f64>,
    /// `parent[n]` = previous hop on the cheapest path (`None` for the
    /// source and unreachable nodes).
    pub parent: Vec<Option<(NodeId, LinkId)>>,
}

impl ShortestPathTree {
    /// Whether `n` is reachable from the source.
    pub fn reachable(&self, n: NodeId) -> bool {
        self.dist.get(n.index()).is_some_and(|d| d.is_finite())
    }

    /// Cost of the cheapest path to `n` (infinite if unreachable).
    pub fn cost_to(&self, n: NodeId) -> f64 {
        self.dist.get(n.index()).copied().unwrap_or(f64::INFINITY)
    }

    /// Reconstruct the cheapest path from the source to `to`.
    ///
    /// # Errors
    /// [`TopoError::Disconnected`] if `to` is unreachable.
    pub fn path_to(&self, to: NodeId) -> Result<Path> {
        if !self.reachable(to) {
            return Err(TopoError::Disconnected {
                from: self.source,
                to,
            });
        }
        let mut nodes = vec![to];
        let mut links = Vec::new();
        let mut cur = to;
        while let Some((prev, link)) = self.parent[cur.index()] {
            nodes.push(prev);
            links.push(link);
            cur = prev;
        }
        nodes.reverse();
        links.reverse();
        Path::new(nodes, links)
    }
}

/// Run Dijkstra from `source` under the given link weight function.
///
/// Weights must be non-negative; `f64::INFINITY` marks a link unusable and
/// NaN or negative weights produce [`TopoError::BadWeight`].
///
/// This allocates a fresh result; hot paths that run many searches should
/// reuse a [`DijkstraScratch`] (see [`crate::algo::scratch`]) instead —
/// both run the identical algorithm.
pub fn shortest_path_tree(
    topo: &Topology,
    source: NodeId,
    weight: impl Fn(&Link) -> f64,
) -> Result<ShortestPathTree> {
    let mut scratch = DijkstraScratch::new();
    scratch.run(topo, source, weight)?;
    let (dist, parent) = scratch.export(topo.node_count());
    Ok(ShortestPathTree {
        source,
        dist,
        parent,
    })
}

/// Cheapest path from `from` to `to` under `weight`.
///
/// # Errors
/// [`TopoError::Disconnected`] if no finite-weight path exists.
pub fn shortest_path(
    topo: &Topology,
    from: NodeId,
    to: NodeId,
    weight: impl Fn(&Link) -> f64,
) -> Result<Path> {
    topo.node(to)?;
    if from == to {
        return Ok(Path::trivial(from));
    }
    shortest_path_tree(topo, from, weight)?.path_to(to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::hop_weight;
    use crate::builders;
    use crate::node::NodeKind;

    fn diamond() -> (Topology, [NodeId; 4]) {
        // a - b - d  (top, lengths 1+1)
        //  \- c -/   (bottom, lengths 5+5)
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::IpRouter, "a");
        let b = t.add_node(NodeKind::IpRouter, "b");
        let c = t.add_node(NodeKind::IpRouter, "c");
        let d = t.add_node(NodeKind::IpRouter, "d");
        t.add_link(a, b, 1.0, 100.0).unwrap();
        t.add_link(b, d, 1.0, 100.0).unwrap();
        t.add_link(a, c, 5.0, 100.0).unwrap();
        t.add_link(c, d, 5.0, 100.0).unwrap();
        (t, [a, b, c, d])
    }

    #[test]
    fn picks_cheaper_branch() {
        let (t, [a, _, _, d]) = diamond();
        let p = shortest_path(&t, a, d, crate::algo::length_weight).unwrap();
        assert_eq!(p.hop_count(), 2);
        let km: f64 = p.links.iter().map(|l| t.link(*l).unwrap().length_km).sum();
        assert!((km - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infinite_weight_disables_link() {
        let (t, [a, _, c, d]) = diamond();
        // Disable the short branch: route must fall back to a-c-d.
        let p = shortest_path(&t, a, d, |l| {
            if l.length_km < 2.0 {
                f64::INFINITY
            } else {
                l.length_km
            }
        })
        .unwrap();
        assert_eq!(p.nodes, vec![a, c, d]);
    }

    #[test]
    fn all_links_disabled_is_disconnected() {
        let (t, [a, _, _, d]) = diamond();
        let err = shortest_path(&t, a, d, |_| f64::INFINITY).unwrap_err();
        assert_eq!(err, TopoError::Disconnected { from: a, to: d });
    }

    #[test]
    fn negative_weight_is_rejected() {
        let (t, [a, _, _, d]) = diamond();
        let err = shortest_path(&t, a, d, |_| -1.0).unwrap_err();
        assert!(matches!(err, TopoError::BadWeight { .. }));
    }

    #[test]
    fn trivial_when_source_equals_destination() {
        let (t, [a, ..]) = diamond();
        let p = shortest_path(&t, a, a, hop_weight).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.source(), a);
    }

    #[test]
    fn tree_distances_are_monotone_along_paths() {
        let t = builders::cycle(8, 10.0, 100.0);
        let spt = shortest_path_tree(&t, NodeId(0), hop_weight).unwrap();
        for n in t.node_ids() {
            if let Some((prev, _)) = spt.parent[n.index()] {
                assert!(spt.cost_to(prev) < spt.cost_to(n));
            }
        }
    }

    #[test]
    fn ring_shortest_goes_the_short_way_round() {
        let t = builders::cycle(6, 10.0, 100.0);
        let p = shortest_path(&t, NodeId(0), NodeId(2), hop_weight).unwrap();
        assert_eq!(p.hop_count(), 2);
        let p2 = shortest_path(&t, NodeId(0), NodeId(4), hop_weight).unwrap();
        assert_eq!(p2.hop_count(), 2); // the other way round
    }

    #[test]
    fn deterministic_between_runs() {
        let t = builders::random_connected(24, 0.2, 7, 100.0);
        let p1 = shortest_path(&t, NodeId(0), NodeId(20), crate::algo::length_weight).unwrap();
        let p2 = shortest_path(&t, NodeId(0), NodeId(20), crate::algo::length_weight).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn unknown_nodes_error() {
        let (t, _) = diamond();
        assert!(shortest_path(&t, NodeId(0), NodeId(99), hop_weight).is_err());
        assert!(shortest_path_tree(&t, NodeId(99), hop_weight).is_err());
    }

    #[test]
    fn produced_paths_validate() {
        let t = builders::nsfnet();
        for to in t.node_ids().skip(1) {
            let p = shortest_path(&t, NodeId(0), to, crate::algo::length_weight).unwrap();
            p.validate(&t).unwrap();
            assert!(p.is_node_simple());
        }
    }
}
