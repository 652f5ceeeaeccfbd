//! The terminal core: the part of the fabric a Steiner tree can use.
//!
//! A national fabric is mostly pendant trees — degree-1 servers, and the
//! access routers and metros that hang off the rest at one node. When such
//! a tree holds no terminal, no tree of the decision can enter it, so
//! neither pricing it nor searching it changes the answer.
//! [`terminal_core`] peels those trees off before a decision prices the
//! fabric; the construction ([`crate::algo::mehlhorn`]) then sees them as
//! links of infinite weight and skips them like any other unusable link.
//!
//! Peeling the whole fabric per decision would cost O(nodes). Instead the
//! peel with nothing pinned — the *static core*, and for every peeled node
//! the link it hung from when it went — is computed once per topology and
//! cached on it. A decision's core is the static core plus, for every pin
//! (root or terminal) the static peel took, the chain of those links up to
//! the static core; on a component that is itself a tree (no static core to
//! reach) the chains are trimmed to the pins' span. A decision therefore
//! costs its pins' chains, not the fabric. The per-call O(nodes) peel this
//! replaces lives on only as the reference of the differential proptest
//! `cached_terminal_core_matches_the_reference_peel` (`tests/reference/`).

use crate::algo::scratch::LocalIds;
use crate::ids::{LinkId, NodeId};
use crate::Result;
use crate::Topology;

/// The peel of a topology with nothing pinned: what is left after
/// repeatedly peeling every degree-1 node, plus the link each peeled node
/// hung from. Cached on the [`Topology`] it was computed from.
#[derive(Debug, Clone, Default)]
pub(crate) struct Peel {
    /// `kept[n]`: node `n` is in the static core.
    kept: Vec<bool>,
    /// For a peeled node, its one remaining neighbour and the link to it
    /// when it went. `None` for static core nodes, and for the last node of
    /// a component that is a tree (its neighbours all went before it).
    up: Vec<Option<(NodeId, LinkId)>>,
    /// Links with both endpoints in the static core, ascending.
    links: Vec<LinkId>,
    /// Number of static core nodes.
    count: usize,
}

impl Peel {
    /// Peel `topo` with nothing pinned: O(nodes + links), once per topology.
    pub(crate) fn of(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut kept = vec![true; n];
        let mut degree: Vec<u32> = topo
            .node_ids()
            .map(|v| topo.neighbors(v).unwrap_or_default().len() as u32)
            .collect();
        let mut up = vec![None; n];
        let mut queue: Vec<NodeId> = topo.node_ids().filter(|v| degree[v.index()] == 1).collect();
        // A node is queued once: either it starts at degree 1, or its degree
        // falls from 2 to 1. Its last neighbour may be peeled before it pops,
        // leaving it isolated; it goes all the same, with no link to hang
        // from.
        let mut count = n;
        while let Some(v) = queue.pop() {
            kept[v.index()] = false;
            count -= 1;
            for &(u, l) in topo.neighbors(v).unwrap_or_default() {
                if kept[u.index()] {
                    up[v.index()] = Some((u, l));
                    degree[u.index()] -= 1;
                    if degree[u.index()] == 1 {
                        queue.push(u);
                    }
                }
            }
        }
        let links = topo
            .links()
            .iter()
            .filter(|l| kept[l.a.index()] && kept[l.b.index()])
            .map(|l| l.id)
            .collect();
        Peel {
            kept,
            up,
            links,
            count,
        }
    }
}

/// The work buffers of [`terminal_core`], recycled through
/// [`ScratchPool::take_core_bufs`](crate::algo::ScratchPool::take_core_bufs).
/// Every array is indexed by local id: the pins' chains and the static core
/// nodes they hang from, nothing else.
#[derive(Debug, Default)]
pub struct CoreBufs {
    ids: LocalIds,
    /// The node is a pin.
    pinned: Vec<bool>,
    /// How many chain nodes hang from the node.
    kids: Vec<u32>,
    /// The last chain node that hung from the node.
    kid: Vec<NodeId>,
    /// Trimmed off a tree component's span: not in the core.
    dropped: Vec<bool>,
    /// Last nodes of tree components that a chain reached.
    tops: Vec<NodeId>,
    /// Core links outside the static core.
    links: Vec<LinkId>,
    /// Number of core nodes outside the static core.
    extra: usize,
}

impl CoreBufs {
    fn clear(&mut self, n: usize) {
        self.ids.reset(n);
        self.pinned.clear();
        self.kids.clear();
        self.kid.clear();
        self.dropped.clear();
        self.tops.clear();
        self.links.clear();
        self.extra = 0;
    }

    /// The local id of `v`, and whether this call assigned it.
    fn local(&mut self, v: NodeId) -> (usize, bool) {
        let (i, fresh) = self.ids.insert(v);
        if fresh {
            self.pinned.push(false);
            self.kids.push(0);
            self.kid.push(v);
            self.dropped.push(false);
        }
        (i, fresh)
    }

    /// Pin `p`, a node the static peel took, and hang its chain: follow the
    /// links the peel recorded until the static core, an earlier chain or
    /// the last node of a tree component.
    fn hang(&mut self, peel: &Peel, p: NodeId) {
        let (i, fresh) = self.local(p);
        self.pinned[i] = true;
        if !fresh {
            return;
        }
        let mut v = p;
        loop {
            let Some((u, _)) = peel.up[v.index()] else {
                self.tops.push(v);
                return;
            };
            let (j, fresh) = self.local(u);
            self.kids[j] += 1;
            self.kid[j] = v;
            if !fresh || peel.kept[u.index()] {
                return;
            }
            v = u;
        }
    }

    /// On each tree component a chain reached, drop the stem above the
    /// pins' span: from the component's last node down, every unpinned
    /// node with exactly one chain below it.
    fn trim(&mut self) {
        for k in 0..self.tops.len() {
            let mut v = self.tops[k];
            while let Some(i) = self.ids.get(v) {
                if self.pinned[i] || self.kids[i] != 1 {
                    break;
                }
                self.dropped[i] = true;
                v = self.kid[i];
            }
        }
    }

    /// Count the chain nodes that stay and list the links that join them to
    /// the core.
    fn collect(&mut self, peel: &Peel) {
        for i in 0..self.ids.len() {
            let v = self.ids.node(i);
            if peel.kept[v.index()] || self.dropped[i] {
                continue;
            }
            self.extra += 1;
            let Some((u, l)) = peel.up[v.index()] else {
                continue;
            };
            // Every chain node's parent was given a local id when the
            // chain climbed to it.
            if self.ids.get(u).is_some_and(|j| !self.dropped[j]) {
                self.links.push(l);
            }
        }
    }
}

/// A decision's terminal core, as [`terminal_core`] computed it: the
/// topology's cached static core plus the pins' chains in `bufs`.
#[derive(Debug, Clone, Copy)]
pub struct TerminalCore<'a> {
    peel: &'a Peel,
    bufs: &'a CoreBufs,
}

impl TerminalCore<'_> {
    /// Number of core nodes.
    pub fn len(&self) -> usize {
        self.peel.count + self.bufs.extra
    }

    /// Whether the core has no node (only for an empty topology).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `v` is a core node.
    pub fn contains(&self, v: NodeId) -> bool {
        match self.peel.kept.get(v.index()) {
            Some(true) => true,
            Some(false) => self.bufs.ids.get(v).is_some_and(|i| !self.bufs.dropped[i]),
            None => false,
        }
    }

    /// The core's links: those whose two endpoints are core nodes, each
    /// once — the static core's ascending, then the chains'.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.peel.links.iter().chain(&self.bufs.links).copied()
    }
}

/// The terminal core of `root` ∪ `terminals`: what is left after repeatedly
/// peeling every degree-1 node that is neither the root nor a terminal.
/// Degree counts parallel links, so a node tied to the rest by two parallel
/// links stays. A link lies in the core iff both its endpoints do.
///
/// The topology's static core (its peel with nothing pinned) is computed on
/// the first call and cached on `topo`; a mutation of `topo` clears it.
/// Every call after that costs the pins' chains to the static core, on
/// `bufs`' existing capacity. The returned view reads the cache and `bufs`.
///
/// # Why the chains give the same core
///
/// A peel's result is the largest node set in which every node that is not
/// pinned and not isolated from the start has degree ≥ 2, whatever order
/// the nodes go in. The static core satisfies that for any pins, so it
/// stays. Every link at a peeled node is the link it or one of its
/// neighbours hung from, so the peeled nodes form trees: hanging from a
/// static core node (pendant trees) or, on a component without a static
/// core, free. In a pendant tree the nodes that stay are exactly those with
/// a pin at or below them — their chains to the static core. In a free
/// tree they are the pins' span: the chains to the tree's last node, less
/// the unpinned single-child stem above the pins.
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
pub fn terminal_core<'a>(
    topo: &'a Topology,
    root: NodeId,
    terminals: &[NodeId],
    bufs: &'a mut CoreBufs,
) -> Result<TerminalCore<'a>> {
    topo.node(root)?;
    for t in terminals {
        topo.node(*t)?;
    }
    let peel = topo.peel();
    bufs.clear(topo.node_count());
    for p in std::iter::once(root).chain(terminals.iter().copied()) {
        if !peel.kept[p.index()] {
            bufs.hang(peel, p);
        }
    }
    bufs.trim();
    bufs.collect(peel);
    Ok(TerminalCore { peel, bufs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::error::TopoError;

    /// The core's node mask and each node's degree over the core's links,
    /// for every node of `topo`, after checking its size and that its links
    /// are the links between its nodes.
    fn core_of(topo: &Topology, root: NodeId, terminals: &[NodeId]) -> (Vec<bool>, Vec<u32>) {
        let mut bufs = CoreBufs::default();
        let core = terminal_core(topo, root, terminals, &mut bufs).unwrap();
        let mask: Vec<bool> = topo.node_ids().map(|v| core.contains(v)).collect();
        assert_eq!(core.len(), mask.iter().filter(|k| **k).count());
        let mut degree = vec![0; topo.node_count()];
        for l in core.links() {
            let link = topo.link(l).unwrap();
            degree[link.a.index()] += 1;
            degree[link.b.index()] += 1;
        }
        let mut links: Vec<LinkId> = core.links().collect();
        links.sort_unstable();
        let between: Vec<LinkId> = topo
            .links()
            .iter()
            .filter(|l| mask[l.a.index()] && mask[l.b.index()])
            .map(|l| l.id)
            .collect();
        assert_eq!(
            links, between,
            "core links are the links between core nodes"
        );
        (mask, degree)
    }

    fn count(mask: &[bool]) -> usize {
        mask.iter().filter(|k| **k).count()
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
        let (mask, _) = core_of(&t, root, locals);
        assert_eq!(count(&mask), 15);
        let core_links = t
            .links()
            .iter()
            .filter(|l| mask[l.a.index()] && mask[l.b.index()])
            .count();
        assert_eq!(core_links, 17);
        for s in &servers {
            let terminal = *s == root || locals.contains(s);
            assert_eq!(mask[s.index()], terminal, "server {s}");
        }
    }

    #[test]
    fn a_path_keeps_the_sub_path_between_its_terminals() {
        let t = builders::linear(8, 1.0, 100.0);
        let (mask, degree) = core_of(&t, NodeId(5), &[NodeId(2), NodeId(3)]);
        let core: Vec<bool> = (0..8).map(|i| (2..=5).contains(&i)).collect();
        assert_eq!(mask, core);
        assert_eq!(degree, [0, 0, 1, 2, 2, 1, 0, 0]);
    }

    #[test]
    fn a_root_only_call_keeps_the_root() {
        let t = builders::linear(5, 1.0, 100.0);
        let (mask, _) = core_of(&t, NodeId(2), &[NodeId(2)]);
        assert_eq!(mask, [false, false, true, false, false]);
        // A ring has no degree-1 node: nothing peels.
        let ring = builders::cycle(6, 1.0, 100.0);
        assert_eq!(count(&core_of(&ring, NodeId(0), &[NodeId(0)]).0), 6);
    }

    #[test]
    fn a_mutation_clears_the_cached_peel() {
        // A path peels away entirely; closing it into a ring keeps it all.
        let mut t = builders::linear(4, 1.0, 100.0);
        assert_eq!(count(&core_of(&t, NodeId(0), &[NodeId(0)]).0), 1);
        t.add_link(NodeId(3), NodeId(0), 1.0, 100.0).unwrap();
        assert_eq!(count(&core_of(&t, NodeId(0), &[NodeId(0)]).0), 4);
        // So does adding a node. Isolated, it stays in every core (it has
        // no degree to lose); linked as a pendant, only as a terminal.
        let v = t.add_node(crate::NodeKind::Server, "v");
        assert_eq!(count(&core_of(&t, NodeId(0), &[NodeId(0)]).0), 5);
        t.add_link(NodeId(2), v, 1.0, 100.0).unwrap();
        assert_eq!(count(&core_of(&t, NodeId(0), &[NodeId(0)]).0), 4);
        assert_eq!(count(&core_of(&t, NodeId(0), &[v]).0), 5);
    }

    #[test]
    fn unknown_nodes_are_typed_errors() {
        let t = builders::linear(3, 1.0, 100.0);
        let mut bufs = CoreBufs::default();
        let ghost = NodeId(9);
        assert_eq!(
            terminal_core(&t, ghost, &[NodeId(1)], &mut bufs).map(|c| c.len()),
            Err(TopoError::UnknownNode(ghost))
        );
        assert_eq!(
            terminal_core(&t, NodeId(0), &[ghost], &mut bufs).map(|c| c.len()),
            Err(TopoError::UnknownNode(ghost))
        );
    }
}
