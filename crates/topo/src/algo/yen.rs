//! Yen's k-shortest loopless paths.
//!
//! Used by the fixed SPFF baseline when the first-choice shortest path has no
//! spare wavelength: the scheduler walks the k-shortest list until first-fit
//! succeeds, mirroring classic RWA practice.

use crate::algo::dijkstra::shortest_path;
use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use crate::path::Path;
use crate::Result;
use crate::Topology;
use std::collections::BTreeSet;

/// Compute up to `k` shortest loopless paths from `from` to `to`.
///
/// Paths are returned in non-decreasing cost order. Fewer than `k` paths are
/// returned when the graph does not contain `k` distinct loopless paths.
///
/// # Errors
/// Propagates [`crate::TopoError::Disconnected`] only if *no* path exists;
/// an empty `k` yields an empty vector.
pub fn k_shortest_paths(
    topo: &Topology,
    from: NodeId,
    to: NodeId,
    k: usize,
    weight: impl Fn(&Link) -> f64,
) -> Result<Vec<Path>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let first = shortest_path(topo, from, to, &weight)?;
    let mut result = vec![first];
    // Candidate set ordered by (cost, path) for determinism.
    let mut candidates: Vec<(f64, Path)> = Vec::new();

    while result.len() < k {
        let last = result.last().expect("at least one accepted path");
        // Each node of the previous path (except the final node) is a spur.
        for spur_idx in 0..last.nodes.len().saturating_sub(1) {
            let spur_node = last.nodes[spur_idx];
            let root_nodes = &last.nodes[..=spur_idx];
            let root_links = &last.links[..spur_idx];

            // Links to remove: next-hop links of every accepted path sharing
            // this root prefix.
            let mut banned_links: BTreeSet<LinkId> = BTreeSet::new();
            for p in &result {
                if p.nodes.len() > spur_idx && p.nodes[..=spur_idx] == *root_nodes {
                    if let Some(l) = p.links.get(spur_idx) {
                        banned_links.insert(*l);
                    }
                }
            }
            // Nodes of the root path (except the spur) must not be revisited.
            let banned_nodes: BTreeSet<NodeId> = root_nodes[..spur_idx].iter().copied().collect();

            let spur = shortest_path(topo, spur_node, to, |l: &Link| {
                if banned_links.contains(&l.id)
                    || banned_nodes.contains(&l.a)
                    || banned_nodes.contains(&l.b)
                {
                    f64::INFINITY
                } else {
                    weight(l)
                }
            });
            let Ok(spur_path) = spur else { continue };

            let total = Path::new(root_nodes.to_vec(), root_links.to_vec())
                .expect("root prefix is consistent")
                .join(&spur_path)
                .expect("spur starts at root end");
            if !total.is_node_simple() {
                continue;
            }
            let cost = path_cost(topo, &total, &weight)?;
            if !result.contains(&total) && !candidates.iter().any(|(_, p)| *p == total) {
                candidates.push((cost, total));
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|(ca, pa), (cb, pb)| {
            ca.partial_cmp(cb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| pa.nodes.cmp(&pb.nodes))
        });
        result.push(candidates.remove(0).1);
    }
    Ok(result)
}

/// Total cost of `path` under `weight`.
pub(crate) fn path_cost(
    topo: &Topology,
    path: &Path,
    weight: impl Fn(&Link) -> f64,
) -> Result<f64> {
    let mut total = 0.0;
    for l in &path.links {
        total += weight(topo.link(*l)?);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::length_weight;
    use crate::builders;
    use crate::node::NodeKind;

    fn diamond() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::IpRouter, "a");
        let b = t.add_node(NodeKind::IpRouter, "b");
        let c = t.add_node(NodeKind::IpRouter, "c");
        let d = t.add_node(NodeKind::IpRouter, "d");
        t.add_link(a, b, 1.0, 10.0).unwrap();
        t.add_link(b, d, 1.0, 10.0).unwrap();
        t.add_link(a, c, 2.0, 10.0).unwrap();
        t.add_link(c, d, 2.0, 10.0).unwrap();
        t.add_link(a, d, 10.0, 10.0).unwrap();
        (t, a, d)
    }

    #[test]
    fn finds_paths_in_cost_order() {
        let (t, a, d) = diamond();
        let ps = k_shortest_paths(&t, a, d, 3, length_weight).unwrap();
        assert_eq!(ps.len(), 3);
        let costs: Vec<f64> = ps
            .iter()
            .map(|p| path_cost(&t, p, length_weight).unwrap())
            .collect();
        assert!((costs[0] - 2.0).abs() < 1e-9);
        assert!((costs[1] - 4.0).abs() < 1e-9);
        assert!((costs[2] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn paths_are_distinct_and_loopless() {
        let (t, a, d) = diamond();
        let ps = k_shortest_paths(&t, a, d, 3, length_weight).unwrap();
        for (i, p) in ps.iter().enumerate() {
            assert!(p.is_node_simple());
            p.validate(&t).unwrap();
            for q in &ps[i + 1..] {
                assert_ne!(p, q);
            }
        }
    }

    #[test]
    fn stops_when_graph_exhausted() {
        let (t, a, d) = diamond();
        let ps = k_shortest_paths(&t, a, d, 10, length_weight).unwrap();
        assert_eq!(ps.len(), 3, "diamond has exactly 3 loopless a->d paths");
    }

    #[test]
    fn k_zero_is_empty() {
        let (t, a, d) = diamond();
        assert!(k_shortest_paths(&t, a, d, 0, length_weight)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn no_path_errors() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let b = t.add_node(NodeKind::Server, "b");
        assert!(k_shortest_paths(&t, a, b, 2, length_weight).is_err());
    }

    #[test]
    fn works_on_nsfnet_with_many_k() {
        let t = builders::nsfnet();
        let ps = k_shortest_paths(&t, NodeId(0), NodeId(10), 5, length_weight).unwrap();
        assert!(ps.len() >= 3);
        let mut prev = 0.0;
        for p in &ps {
            let c = path_cost(&t, p, length_weight).unwrap();
            assert!(c + 1e-9 >= prev, "costs must be non-decreasing");
            prev = c;
        }
    }
}
