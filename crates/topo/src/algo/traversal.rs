//! Breadth-first traversal and connectivity queries.

use crate::algo::scratch::TreeBufs;
use crate::ids::{LinkId, NodeId};
use crate::Result;
use crate::Topology;
use std::collections::VecDeque;

/// Nodes reachable from `start` in BFS order (including `start`).
pub(crate) fn bfs_order(topo: &Topology, start: NodeId) -> Result<Vec<NodeId>> {
    topo.node(start)?;
    let mut visited = vec![false; topo.node_count()];
    let mut order = Vec::new();
    let mut q = VecDeque::from([start]);
    visited[start.index()] = true;
    while let Some(n) = q.pop_front() {
        order.push(n);
        for &(nbr, _) in topo.neighbors(n)? {
            if !visited[nbr.index()] {
                visited[nbr.index()] = true;
                q.push_back(nbr);
            }
        }
    }
    Ok(order)
}

/// Whether `root` reaches every node of `terminals` over the links `usable`
/// accepts: a breadth-first search from `root` that stops as soon as every
/// terminal is marked.
///
/// On return `bufs.mask` marks the nodes the search reached and
/// `bufs.keep` the root and terminals; on `false` the search ran out, so
/// `bufs.mask` is exactly `root`'s component under `usable` and the
/// terminals left unmarked are the ones it cannot reach. `bufs.queue` holds
/// the reached nodes in visiting order. No allocation beyond the buffers'
/// existing capacity.
///
/// # Errors
/// [`TopoError::UnknownNode`](crate::TopoError::UnknownNode) if the root
/// or a terminal is not a node of `topo`.
pub fn reaches_all(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    usable: impl Fn(LinkId) -> bool,
    bufs: &mut TreeBufs,
) -> Result<bool> {
    topo.node(root)?;
    for t in terminals {
        topo.node(*t)?;
    }
    let n = topo.node_count();
    let TreeBufs {
        mask: seen,
        keep: wanted,
        queue,
        ..
    } = bufs;
    wanted.clear();
    wanted.resize(n, false);
    wanted[root.index()] = true;
    // The root is reached before the search starts: only the other
    // distinct terminals are outstanding.
    let mut missing = 0usize;
    for t in terminals {
        if !wanted[t.index()] {
            wanted[t.index()] = true;
            missing += 1;
        }
    }
    seen.clear();
    seen.resize(n, false);
    seen[root.index()] = true;
    queue.clear();
    queue.push(root);
    let mut head = 0;
    while missing > 0 && head < queue.len() {
        let v = queue[head];
        head += 1;
        for &(u, l) in topo.neighbors(v)? {
            if !seen[u.index()] && usable(l) {
                seen[u.index()] = true;
                missing -= usize::from(wanted[u.index()]);
                queue.push(u);
            }
        }
    }
    Ok(missing == 0)
}

/// Partition all nodes into connected components (each sorted ascending,
/// components ordered by their smallest member).
pub(crate) fn connected_components(topo: &Topology) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; topo.node_count()];
    let mut comps = Vec::new();
    for n in topo.node_ids() {
        if seen[n.index()] {
            continue;
        }
        let comp = bfs_order(topo, n).expect("node id from iterator is valid");
        for c in &comp {
            seen[c.index()] = true;
        }
        let mut comp = comp;
        comp.sort();
        comps.push(comp);
    }
    comps
}

/// Whether the topology is a single connected component (vacuously true for
/// the empty topology).
#[cfg(test)]
pub(crate) fn is_connected(topo: &Topology) -> bool {
    connected_components(topo).len() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::node::NodeKind;

    #[test]
    fn bfs_covers_connected_graph() {
        let t = builders::cycle(6, 1.0, 10.0);
        let order = bfs_order(&t, NodeId(0)).unwrap();
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], NodeId(0));
    }

    #[test]
    fn reaches_all_stops_at_the_last_terminal_of_a_path() {
        let t = builders::linear(6, 1.0, 10.0);
        let mut bufs = TreeBufs::default();
        let all = |_| true;
        assert!(reaches_all(&t, NodeId(1), &[NodeId(3), NodeId(0)], all, &mut bufs).unwrap());
        // Nodes 0..=3 are all marked once 3 is; 4 and 5 are never reached.
        assert_eq!(bufs.mask, [true, true, true, true, false, false]);
        // The last link cut: node 5 is out of reach, and the mask is the
        // root's whole component.
        let cut = t.find_link(NodeId(4), NodeId(5)).unwrap();
        let up = |l| l != cut;
        assert!(!reaches_all(&t, NodeId(1), &[NodeId(5), NodeId(2)], up, &mut bufs).unwrap());
        assert_eq!(bufs.mask, [true, true, true, true, true, false]);
    }

    #[test]
    fn a_ring_with_one_link_masked_stays_connected() {
        let t = builders::cycle(6, 1.0, 10.0);
        let masked = t.find_link(NodeId(0), NodeId(1)).unwrap();
        let mut bufs = TreeBufs::default();
        let terminals = [NodeId(1), NodeId(3), NodeId(5)];
        assert!(reaches_all(&t, NodeId(0), &terminals, |l| l != masked, &mut bufs).unwrap());
        // A second cut isolates the arc 1..=2 from the root.
        let second = t.find_link(NodeId(2), NodeId(3)).unwrap();
        let up = |l| l != masked && l != second;
        assert!(!reaches_all(&t, NodeId(0), &terminals, up, &mut bufs).unwrap());
        assert!(!bufs.mask[1] && !bufs.mask[2] && bufs.mask[3] && bufs.mask[5]);
    }

    #[test]
    fn a_root_only_call_reaches_without_searching() {
        let t = builders::cycle(4, 1.0, 10.0);
        let mut bufs = TreeBufs::default();
        let none = |_| false;
        assert!(reaches_all(&t, NodeId(2), &[], none, &mut bufs).unwrap());
        assert!(reaches_all(&t, NodeId(2), &[NodeId(2)], none, &mut bufs).unwrap());
        assert_eq!(bufs.queue, [NodeId(2)]);
        assert!(!reaches_all(&t, NodeId(2), &[NodeId(2), NodeId(0)], none, &mut bufs).unwrap());
    }

    #[test]
    fn reaches_all_rejects_unknown_nodes() {
        let t = builders::linear(3, 1.0, 10.0);
        let mut bufs = TreeBufs::default();
        let ghost = NodeId(9);
        let all = |_| true;
        assert_eq!(
            reaches_all(&t, ghost, &[NodeId(1)], all, &mut bufs),
            Err(crate::TopoError::UnknownNode(ghost))
        );
        assert_eq!(
            reaches_all(&t, NodeId(0), &[NodeId(1), ghost], all, &mut bufs),
            Err(crate::TopoError::UnknownNode(ghost))
        );
    }

    #[test]
    fn components_split_islands() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let b = t.add_node(NodeKind::Server, "b");
        let c = t.add_node(NodeKind::Server, "c");
        let d = t.add_node(NodeKind::Server, "d");
        t.add_link(a, b, 1.0, 1.0).unwrap();
        t.add_link(c, d, 1.0, 1.0).unwrap();
        let comps = connected_components(&t);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![a, b]);
        assert_eq!(comps[1], vec![c, d]);
        assert!(!is_connected(&t));
    }

    #[test]
    fn empty_topology_is_connected() {
        assert!(is_connected(&Topology::new()));
    }

    #[test]
    fn builders_produce_connected_graphs() {
        assert!(is_connected(&builders::nsfnet()));
        assert!(is_connected(&builders::linear(5, 1.0, 10.0)));
        assert!(is_connected(&builders::star(8, 1.0, 10.0)));
        assert!(is_connected(&builders::random_connected(30, 0.1, 3, 10.0)));
    }
}

/// Bridges of the topology: links whose removal disconnects their
/// component, ascending. They are the blocks of one link, so parallel links
/// between the same node pair are never bridges.
///
/// Its one caller, the orchestrator's test-only fault storm, uses it to
/// tell *survivable* faults (a detour exists, rescheduling policies can
/// compete) from bridge cuts that disconnect service under any policy.
pub fn bridges(topo: &Topology) -> Vec<LinkId> {
    topo.blocks().bridges()
}

#[cfg(test)]
mod bridge_tests {
    use super::*;
    use crate::builders;
    use crate::node::NodeKind;

    #[test]
    fn ring_has_no_bridges_line_is_all_bridges() {
        let ring = builders::cycle(6, 1.0, 100.0);
        assert!(bridges(&ring).is_empty());
        let line = builders::linear(5, 1.0, 100.0);
        assert_eq!(bridges(&line).len(), line.link_count());
    }

    #[test]
    fn parallel_links_are_not_bridges() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::IpRouter, "a");
        let b = t.add_node(NodeKind::IpRouter, "b");
        let c = t.add_node(NodeKind::IpRouter, "c");
        t.add_link(a, b, 1.0, 100.0).unwrap();
        t.add_link(a, b, 1.0, 100.0).unwrap(); // parallel pair: no bridge
        let bc = t.add_link(b, c, 1.0, 100.0).unwrap(); // lone spur: bridge
        assert_eq!(bridges(&t), vec![bc]);
    }

    #[test]
    fn bridges_match_brute_force_on_random_graphs() {
        for seed in 0..5 {
            let t = builders::random_connected(18, 0.12, seed, 100.0);
            let fast = bridges(&t);
            for l in 0..t.link_count() as u32 {
                let id = crate::ids::LinkId(l);
                // Brute force: BFS avoiding `id`; disconnection <=> bridge.
                let link = t.link(id).unwrap();
                let mut seen = vec![false; t.node_count()];
                let mut q = vec![link.a];
                seen[link.a.index()] = true;
                while let Some(n) = q.pop() {
                    for &(nbr, via) in t.neighbors(n).unwrap() {
                        if via != id && !seen[nbr.index()] {
                            seen[nbr.index()] = true;
                            q.push(nbr);
                        }
                    }
                }
                let disconnects = !seen[link.b.index()];
                assert_eq!(
                    fast.contains(&id),
                    disconnects,
                    "seed {seed} link {id}: tarjan disagrees with brute force"
                );
            }
        }
    }

    #[test]
    fn metro_bridges_are_the_single_homed_spurs() {
        let t = builders::metro(&builders::MetroParams::default());
        let b = bridges(&t);
        // The WDM ring (with chords) is 2-edge-connected; every bridge must
        // touch a server or a single-homed router.
        for l in &b {
            let link = t.link(*l).unwrap();
            let ka = t.node(link.a).unwrap().kind;
            let kb = t.node(link.b).unwrap().kind;
            assert!(
                ka != NodeKind::Roadm || kb != NodeKind::Roadm,
                "ring span {l} flagged as a bridge"
            );
        }
    }
}
