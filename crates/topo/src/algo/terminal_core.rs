//! The terminal core: the part of the fabric a Steiner tree can use.
//!
//! A national fabric is mostly pendant trees — degree-1 servers, and the
//! access routers and metros that hang off the rest at one node. When such
//! a tree holds no terminal, no tree of the decision can enter it, so
//! neither pricing it nor searching it changes the answer.
//! [`terminal_core`] peels those trees off before a decision prices the
//! fabric; the construction ([`crate::algo::mehlhorn`]) then sees them as
//! links of infinite weight and skips them like any other unusable link.

use crate::algo::scratch::TreeBufs;
use crate::ids::NodeId;
use crate::Result;
use crate::Topology;

/// Mark the terminal core of `root` ∪ `terminals` in `bufs.mask`: what is
/// left after repeatedly peeling every degree-1 node that is neither the
/// root nor a terminal. Degree counts parallel links, so a node tied to
/// the rest by two parallel links stays. Returns the number of core nodes.
///
/// On return, for every node `n` of `topo`, `bufs.mask[n]` says whether
/// `n` is in the core and `bufs.counts[n]` is its degree inside the core
/// (0 for peeled nodes); `bufs.keep` marks the root and terminals and
/// `bufs.queue` is left empty. A link lies in the core iff both its
/// endpoints do. Nothing is cached on `topo`: the work is O(nodes) plus
/// the adjacency of the peeled nodes, on the buffers' existing capacity.
///
/// # Why solving on the core is exact
///
/// This is the classical degree-1 reduction test for Steiner problems
/// (Duin & Volgenant, *Reduction tests for the Steiner problem in graphs*,
/// Networks 1989), and it holds for any non-negative, non-NaN link
/// weights — zeros and `f64::INFINITY` included. Pricing every link
/// outside the core at infinity leaves
/// [`steiner_tree_with_weights_in`](crate::algo::steiner_tree_with_weights_in)'s
/// result bit for bit unchanged, tree or error:
///
/// * A peeled node belongs to a pendant tree: a tree that joins the rest
///   of the fabric at one core node, its anchor, and holds no terminal.
///   So no simple path between two core nodes enters it.
/// * Every search starts from core nodes (the root, or all terminals), so
///   a pendant node is first reached through its anchor after the anchor
///   settles, and it can relax nothing but its own pendant tree and the
///   settled anchor. Core nodes therefore keep their distance, parent,
///   Voronoi label and (cost, node id) pop order, and the root search's
///   early exit fires at the same node.
/// * No edge inside or into a pendant tree is a boundary edge, because
///   both of its ends carry the anchor's label. The boundary edges, their
///   Kruskal order and the expanded paths are the same.
/// * No core node's parent chain enters a pendant tree, so the expanded
///   boundary paths and the root's shortest-path union never reach one —
///   and pruning would delete its nodes anyway, as they hold no terminal.
///
/// # Errors
/// [`TopoError::UnknownNode`](crate::TopoError::UnknownNode) if the root
/// or a terminal is not a node of `topo`.
pub fn terminal_core(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    bufs: &mut TreeBufs,
) -> Result<usize> {
    topo.node(root)?;
    for t in terminals {
        topo.node(*t)?;
    }
    let n = topo.node_count();
    let TreeBufs {
        mask: kept,
        counts: degree,
        keep: pinned,
        queue,
        ..
    } = bufs;
    pinned.clear();
    pinned.resize(n, false);
    pinned[root.index()] = true;
    for t in terminals {
        pinned[t.index()] = true;
    }
    kept.clear();
    kept.resize(n, true);
    degree.clear();
    queue.clear();
    for v in topo.node_ids() {
        let d = topo.neighbors(v)?.len() as u32;
        degree.push(d);
        if d == 1 && !pinned[v.index()] {
            queue.push(v);
        }
    }
    // A node is queued once: either it starts at degree 1, or its degree
    // falls from 2 to 1. Its last neighbour may be peeled before it pops,
    // leaving it isolated; it goes all the same.
    let mut core = n;
    while let Some(v) = queue.pop() {
        kept[v.index()] = false;
        degree[v.index()] = 0;
        core -= 1;
        for &(u, _) in topo.neighbors(v)? {
            if kept[u.index()] {
                degree[u.index()] -= 1;
                if degree[u.index()] == 1 && !pinned[u.index()] {
                    queue.push(u);
                }
            }
        }
    }
    Ok(core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::error::TopoError;

    fn core_of(topo: &Topology, root: NodeId, terminals: &[NodeId]) -> (TreeBufs, usize) {
        let mut bufs = TreeBufs::default();
        let kept = terminal_core(topo, root, terminals, &mut bufs).unwrap();
        (bufs, kept)
    }

    fn core_links(topo: &Topology, mask: &[bool]) -> usize {
        topo.links()
            .iter()
            .filter(|l| mask[l.a.index()] && mask[l.b.index()])
            .count()
    }

    #[test]
    fn a_metro_task_keeps_its_access_paths_and_the_ring() {
        // The paper's metro: six ROADMs on a ring with two chords, a router
        // per ROADM, four servers per router. The global model sits on
        // router 0, five locals on routers 1 and 2: the ring, those three
        // routers and the six terminals stay; the other eighteen servers
        // and three routers peel away.
        let t = builders::metro(&builders::MetroParams::default());
        assert_eq!((t.node_count(), t.link_count()), (36, 38));
        let servers = t.servers();
        let (root, locals) = (servers[0], &servers[4..=8]);
        let (bufs, kept) = core_of(&t, root, locals);
        assert_eq!(kept, 15);
        assert_eq!(bufs.mask.iter().filter(|k| **k).count(), kept);
        assert_eq!(core_links(&t, &bufs.mask), 17);
        for s in &servers {
            let terminal = *s == root || locals.contains(s);
            assert_eq!(bufs.mask[s.index()], terminal, "server {s}");
        }
        // Core degrees add up to twice the core's links.
        let degree_sum: u32 = bufs.counts.iter().sum();
        assert_eq!(degree_sum as usize, 2 * core_links(&t, &bufs.mask));
        assert!(bufs.queue.is_empty());
    }

    #[test]
    fn a_path_keeps_the_sub_path_between_its_terminals() {
        let t = builders::linear(8, 1.0, 100.0);
        let (bufs, kept) = core_of(&t, NodeId(5), &[NodeId(2), NodeId(3)]);
        assert_eq!(kept, 4);
        let core: Vec<bool> = (0..8).map(|i| (2..=5).contains(&i)).collect();
        assert_eq!(bufs.mask, core);
    }

    #[test]
    fn a_root_only_call_keeps_the_root() {
        let t = builders::linear(5, 1.0, 100.0);
        let (bufs, kept) = core_of(&t, NodeId(2), &[NodeId(2)]);
        assert_eq!(kept, 1);
        assert_eq!(bufs.mask, [false, false, true, false, false]);
        // A ring has no degree-1 node: nothing peels.
        let ring = builders::ring(6, 1.0, 100.0);
        assert_eq!(core_of(&ring, NodeId(0), &[NodeId(0)]).1, 6);
    }

    #[test]
    fn unknown_nodes_are_typed_errors() {
        let t = builders::linear(3, 1.0, 100.0);
        let mut bufs = TreeBufs::default();
        let ghost = NodeId(9);
        assert_eq!(
            terminal_core(&t, ghost, &[NodeId(1)], &mut bufs),
            Err(TopoError::UnknownNode(ghost))
        );
        assert_eq!(
            terminal_core(&t, NodeId(0), &[ghost], &mut bufs),
            Err(TopoError::UnknownNode(ghost))
        );
    }
}
