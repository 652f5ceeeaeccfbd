//! The terminal core: the part of the fabric a Steiner tree can use.
//!
//! A national fabric is mostly parts that hang off the rest at one node:
//! degree-1 servers, the access routers above them, and metro rings that
//! reach the backbone through one core ROADM. When such a part holds no
//! terminal, no tree of the decision can enter it, so neither pricing it
//! nor searching it changes the answer. [`terminal_core`] cuts those parts
//! off before a decision prices the fabric; the construction
//! ([`crate::algo::mehlhorn`]) then sees them as links of infinite weight
//! and skips them like any other unusable link.
//!
//! The parts come from the fabric's biconnected blocks (Hopcroft & Tarjan,
//! *Efficient algorithms for graph manipulation*, CACM 1973): the maximal
//! link sets that no single node cuts apart. Blocks and cut vertices form
//! the block-cut forest, which one depth-first search computes once per
//! topology and caches on it. A decision's core is the blocks on the forest
//! paths between its pins (root and terminals), so it costs the pins'
//! chains up the forest, not the fabric. The brute-force block reduction of
//! `tests/reference/` is the oracle of the differential proptest
//! `cached_terminal_core_matches_the_reference_reduction`.

use crate::algo::scratch::LocalIds;
use crate::ids::{LinkId, NodeId};
use crate::Result;
use crate::Topology;

/// A biconnected block, as the node forest of [`Blocks`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// A block of one link: a bridge.
    Bridge(LinkId),
    /// The `k`-th block of two or more links, in [`Blocks::links`].
    Links(u32),
}

/// The block-cut forest of a topology, folded onto its nodes: every node
/// hangs from its block's entry node, through that block. Cached on the
/// [`Topology`] it was computed from.
#[derive(Debug, Clone, Default)]
pub(crate) struct Blocks {
    /// For each node, its block and the node the search entered that block
    /// by. `None` for the node each component's search started from.
    up: Vec<Option<(NodeId, Block)>>,
    /// The links of every block of two or more links, block after block.
    links: Vec<LinkId>,
    /// `ends[k]`: where block `k`'s links end in `links`.
    ends: Vec<u32>,
}

impl Blocks {
    /// The blocks of `topo`: one iterative depth-first search that tracks
    /// each node's low point and stacks the links and nodes of the blocks
    /// still open, O(nodes + links), once per topology. Parallel links are
    /// told apart by id, so a node pair tied by two links is a block of
    /// two links, not two bridges.
    pub(crate) fn of(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut blocks = Blocks {
            up: vec![None; n],
            ..Blocks::default()
        };
        // `disc[v]`: order of discovery, from 1; 0 for a node not yet seen.
        let mut disc = vec![0u32; n];
        let mut time = 0;
        let (mut open_links, mut open_nodes) = (Vec::new(), Vec::new());
        // (node, the link the search entered it by, neighbour cursor, the
        // node's low point): a node's low point is read only while it is
        // on the stack.
        let mut stack: Vec<(NodeId, Option<LinkId>, u32, u32)> = Vec::new();
        for start in topo.node_ids() {
            if disc[start.index()] != 0 {
                continue;
            }
            time += 1;
            disc[start.index()] = time;
            stack.push((start, None, 0, time));
            while let Some(&mut (v, entered, ref mut cursor, ref mut low)) = stack.last_mut() {
                let neighbors = topo.neighbors(v).unwrap_or_default();
                if let Some(&(u, l)) = neighbors.get(*cursor as usize) {
                    *cursor += 1;
                    if disc[u.index()] == 0 {
                        time += 1;
                        disc[u.index()] = time;
                        open_links.push(l);
                        open_nodes.push(u);
                        stack.push((u, Some(l), 0, time));
                    } else if disc[u.index()] < disc[v.index()] && Some(l) != entered {
                        // A link back to an ancestor; one to a descendant
                        // was stacked when the descendant scanned it.
                        *low = (*low).min(disc[u.index()]);
                        open_links.push(l);
                    }
                    continue;
                }
                let low_v = *low;
                stack.pop();
                let (Some((head, .., low)), Some(l)) = (stack.last_mut(), entered) else {
                    continue;
                };
                *low = (*low).min(low_v);
                if low_v < disc[head.index()] {
                    continue;
                }
                // Nothing below `v` climbs above `head`: the links stacked
                // since `l`, and the nodes since `v`, close a block.
                let from = open_links
                    .iter()
                    .rposition(|o| *o == l)
                    .expect("entry link is open");
                let block = if from + 1 == open_links.len() {
                    Block::Bridge(l)
                } else {
                    blocks.links.extend_from_slice(&open_links[from..]);
                    blocks.ends.push(blocks.links.len() as u32);
                    Block::Links(blocks.ends.len() as u32 - 1)
                };
                open_links.truncate(from);
                while let Some(w) = open_nodes.pop() {
                    blocks.up[w.index()] = Some((*head, block));
                    if w == v {
                        break;
                    }
                }
            }
        }
        blocks.links.shrink_to_fit();
        blocks.ends.shrink_to_fit();
        blocks
    }

    /// The links of the `k`-th block of two or more links.
    fn links_of(&self, k: u32) -> &[LinkId] {
        let start = k.checked_sub(1).map_or(0, |j| self.ends[j as usize]);
        &self.links[start as usize..self.ends[k as usize] as usize]
    }

    /// The links that are blocks of their own, ascending.
    pub(crate) fn bridges(&self) -> Vec<LinkId> {
        let mut out: Vec<LinkId> = self
            .up
            .iter()
            .filter_map(|up| match up {
                Some((_, Block::Bridge(l))) => Some(*l),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }
}

/// A node on the pins' chains, by local id.
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    /// The node is a pin.
    pinned: bool,
    /// Trimmed off the stem above the pins: not in the core.
    dropped: bool,
    /// How many chain nodes hang from the node.
    kids: u32,
    /// The last chain node that hung from the node.
    kid: u32,
    /// The entry node the node hangs from, and the block it hangs through;
    /// `None` at the top of its component.
    up: Option<(u32, Block)>,
}

/// The work buffers of [`terminal_core`], recycled through
/// [`ScratchPool::take_core_bufs`](crate::algo::ScratchPool::take_core_bufs).
/// Every array is indexed by local id: the nodes on the pins' chains,
/// nothing else.
#[derive(Debug, Default)]
pub struct CoreBufs {
    ids: LocalIds,
    chain: Vec<Chain>,
    /// The top of every component a chain reached.
    tops: Vec<u32>,
    /// The core's links.
    links: Vec<LinkId>,
    /// The blocks of two or more links in the core.
    wide: Vec<u32>,
}

impl CoreBufs {
    fn clear(&mut self, n: usize) {
        self.ids.reset(n);
        self.chain.clear();
        self.tops.clear();
        self.links.clear();
        self.wide.clear();
    }

    /// The local id of `v`, and whether this call assigned it.
    fn local(&mut self, v: NodeId) -> (usize, bool) {
        let (i, fresh) = self.ids.insert(v);
        if fresh {
            self.chain.push(Chain::default());
        }
        (i, fresh)
    }

    /// Pin `p` and hang its chain: climb from node to block entry node
    /// until an earlier chain or the top of the component.
    fn hang(&mut self, blocks: &Blocks, p: NodeId) {
        let (mut i, fresh) = self.local(p);
        self.chain[i].pinned = true;
        if !fresh {
            return;
        }
        let mut v = p;
        loop {
            let Some((u, block)) = blocks.up[v.index()] else {
                self.tops.push(i as u32);
                return;
            };
            let (j, fresh) = self.local(u);
            self.chain[i].up = Some((j as u32, block));
            self.chain[j].kids += 1;
            self.chain[j].kid = i as u32;
            if !fresh {
                return;
            }
            (i, v) = (j, u);
        }
    }

    /// On each component a chain reached, drop the stem above the pins:
    /// from the top down, every unpinned node with exactly one chain below
    /// it.
    fn trim(&mut self) {
        for &top in &self.tops {
            let mut i = top as usize;
            while !self.chain[i].pinned && self.chain[i].kids == 1 {
                self.chain[i].dropped = true;
                i = self.chain[i].kid as usize;
            }
        }
    }

    /// List the links of the core's blocks: the block every chain node
    /// that stays hangs through, if its entry node stays too. Several chain
    /// nodes may hang through one block of two or more links; its links
    /// are listed once.
    fn collect(&mut self, blocks: &Blocks) {
        for c in &self.chain {
            let Some((j, block)) = c.up else {
                continue;
            };
            if c.dropped || self.chain[j as usize].dropped {
                continue;
            }
            match block {
                Block::Bridge(l) => self.links.push(l),
                Block::Links(k) if !self.wide.contains(&k) => {
                    self.wide.push(k);
                    self.links.extend_from_slice(blocks.links_of(k));
                }
                Block::Links(_) => {}
            }
        }
    }
}

/// A decision's terminal core, as [`terminal_core`] computed it: the
/// topology's cached blocks and the pins' chains in `bufs`.
#[derive(Debug, Clone, Copy)]
pub struct TerminalCore<'a> {
    blocks: &'a Blocks,
    bufs: &'a CoreBufs,
}

impl TerminalCore<'_> {
    /// Whether `v` is a core node: a chain node that stays, or a node of a
    /// block of two or more links in the core (a bridge's nodes are both
    /// chain nodes).
    pub fn contains(&self, v: NodeId) -> bool {
        let Some(up) = self.blocks.up.get(v.index()) else {
            return false;
        };
        if let Some(i) = self.bufs.ids.get(v) {
            return !self.bufs.chain[i].dropped;
        }
        matches!(up, Some((_, Block::Links(k))) if self.bufs.wide.contains(k))
    }

    /// The core's links: those whose two endpoints are core nodes, each
    /// once, block by block.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.bufs.links.iter().copied()
    }
}

/// The terminal core of `root` ∪ `terminals`: the nodes and links of the
/// blocks on the block-cut forest's paths between them, plus the pins
/// themselves. What goes is every part of the fabric that holds no pin and
/// joins the rest at one node, a cut vertex, and every component without
/// a pin. Parallel links form a block, so a node tied to the rest by two
/// of them stays only on a path between pins. A link lies in the core iff
/// both its endpoints do.
///
/// The topology's blocks are computed on the first call and cached on
/// `topo`; a mutation of `topo` clears them. Every call after that costs
/// the pins' chains to the tops of their components, on `bufs`' existing
/// capacity. The returned view reads the cache and `bufs`.
///
/// # Why the chains give the core
///
/// Every node but a component's top hangs from its block's entry node,
/// through that block, so a pin's chain visits the blocks and cut vertices
/// on its forest path to the top. The paths between pins are the chains
/// less the stem above them: the nodes with one chain below them and no
/// pin, from the top down. A block is on such a path iff a chain node that
/// stays hangs through it from an entry node that stays. The one block the
/// stem's last node hangs through is left out: it has one chain inside it,
/// which only passes through.
///
/// # Why solving on the core is exact
///
/// This is a reduction test of the classical family for Steiner problems
/// (Duin & Volgenant, *Reduction tests for the Steiner problem in graphs*,
/// Networks 1989), and it holds for any non-negative, non-NaN link
/// weights — zeros and `f64::INFINITY` included. Pricing every link
/// outside the core at infinity leaves
/// [`steiner_tree_with_weights_in`](crate::algo::steiner_tree_with_weights_in)'s
/// result bit for bit unchanged, tree or error:
///
/// * A node outside the core belongs to a pendant part: a part that joins
///   the rest of the fabric at one core node, its anchor, and holds no
///   terminal (or to a component no search starts in). So no simple path
///   between two core nodes enters it.
/// * Every search starts from core nodes (the root, or all terminals), so
///   a pendant node is first reached through its anchor after the anchor
///   settles, and it can relax nothing but its own pendant part and the
///   settled anchor. Core nodes therefore keep their distance, parent,
///   Voronoi label and (cost, node id) pop order, and the root search's
///   early exit fires at the same node.
/// * No edge inside or into a pendant part is a boundary edge, because
///   both of its ends carry the anchor's label. The boundary edges, their
///   Kruskal order and the expanded paths are the same.
/// * No core node's parent chain enters a pendant part, so the expanded
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
    let blocks = topo.blocks();
    bufs.clear(topo.node_count());
    for &p in std::iter::once(&root).chain(terminals) {
        topo.node(p)?;
        bufs.hang(blocks, p);
    }
    bufs.trim();
    bufs.collect(blocks);
    Ok(TerminalCore { blocks, bufs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::error::TopoError;

    /// The core's node mask and each node's degree over the core's links,
    /// for every node of `topo`, after checking that its links are the
    /// links between its nodes, each once.
    fn core_of(topo: &Topology, root: NodeId, terminals: &[NodeId]) -> (Vec<bool>, Vec<u32>) {
        let mut bufs = CoreBufs::default();
        let core = terminal_core(topo, root, terminals, &mut bufs).unwrap();
        let mask: Vec<bool> = topo.node_ids().map(|v| core.contains(v)).collect();
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
        // and three routers hang off the ring without a pin and go.
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
        // A ring is one block, but no path between pins crosses it.
        let ring = builders::cycle(6, 1.0, 100.0);
        assert_eq!(count(&core_of(&ring, NodeId(0), &[NodeId(0)]).0), 1);
    }

    #[test]
    fn a_ring_stays_only_between_pins() {
        // A ring of four (0..=3) hung by two links from node 4 of a path
        // 4-5-6, like a metro ring from its core ROADM. Pinned at 5 and 6,
        // the ring goes; a pin on it keeps the whole ring and its links to
        // node 4, whichever of its nodes the search entered it by.
        let mut t = builders::cycle(4, 1.0, 100.0);
        let hub = t.add_node(crate::NodeKind::Roadm, "hub");
        let mid = t.add_node(crate::NodeKind::Roadm, "mid");
        let end = t.add_node(crate::NodeKind::Roadm, "end");
        for (a, b) in [(NodeId(0), hub), (NodeId(2), hub), (hub, mid), (mid, end)] {
            t.add_link(a, b, 1.0, 100.0).unwrap();
        }
        let (mask, _) = core_of(&t, mid, &[end]);
        assert_eq!(mask, [false, false, false, false, false, true, true]);
        for pin in [NodeId(1), NodeId(3)] {
            let (mask, degree) = core_of(&t, end, &[pin]);
            assert_eq!(mask, [true, true, true, true, true, true, true]);
            assert_eq!(degree, [3, 2, 3, 2, 3, 2, 1]);
        }
    }

    #[test]
    fn a_mutation_clears_the_cached_blocks() {
        // A path between two pins keeps the nodes between them; closing it
        // into a ring keeps it all.
        let mut t = builders::linear(4, 1.0, 100.0);
        let pins = [NodeId(2)];
        assert_eq!(count(&core_of(&t, NodeId(0), &pins).0), 3);
        t.add_link(NodeId(3), NodeId(0), 1.0, 100.0).unwrap();
        assert_eq!(count(&core_of(&t, NodeId(0), &pins).0), 4);
        // So does adding a node. Isolated, it is in no core but its own;
        // linked as a pendant, only as a terminal.
        let v = t.add_node(crate::NodeKind::Server, "v");
        assert_eq!(count(&core_of(&t, NodeId(0), &pins).0), 4);
        assert_eq!(count(&core_of(&t, v, &[v]).0), 1);
        t.add_link(NodeId(2), v, 1.0, 100.0).unwrap();
        assert_eq!(count(&core_of(&t, NodeId(0), &pins).0), 4);
        assert_eq!(count(&core_of(&t, NodeId(0), &[v]).0), 5);
    }

    #[test]
    fn unknown_nodes_are_typed_errors() {
        let t = builders::linear(3, 1.0, 100.0);
        let mut bufs = CoreBufs::default();
        let ghost = NodeId(9);
        assert_eq!(
            terminal_core(&t, ghost, &[NodeId(1)], &mut bufs).map(|c| c.links().count()),
            Err(TopoError::UnknownNode(ghost))
        );
        assert_eq!(
            terminal_core(&t, NodeId(0), &[ghost], &mut bufs).map(|c| c.links().count()),
            Err(TopoError::UnknownNode(ghost))
        );
    }
}
