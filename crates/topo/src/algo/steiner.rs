//! The rooted Steiner tree the paper's flexible scheduler routes over.
//!
//! The poster describes the flexible scheduler as: build an auxiliary graph,
//! weight its links by bandwidth consumption and latency, then "find MSTs
//! between the global model and local models". Connecting a *subset* of
//! vertices (the global model node and the selected local model nodes) with
//! minimum total link weight is the Steiner tree problem; the MST-based
//! construction that solves it lives in [`crate::algo::mehlhorn`]. This
//! module holds its result type.
//!
//! A [`SteinerTree`] is rooted at the global-model node so that broadcast
//! trees (root -> leaves) and upload trees (leaves -> root, with
//! aggregation at branch points) fall out directly. It stores its parent
//! pointers and children lists once, at construction, for its own nodes
//! only: the schedulers read them on every edge they rate, reserve or
//! repair, and stored schedules keep them for their whole life.

use crate::error::TopoError;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;
use crate::Result;
use crate::Topology;
use std::collections::BTreeMap;

/// A tree connecting a root to a set of terminal nodes, possibly through
/// intermediate (Steiner) nodes.
///
/// The tree stores its own nodes only: parent pointers and children lists
/// are flat arrays indexed by a node's *position* in the ascending
/// [`nodes`](SteinerTree::nodes), so a tree's size is the tree's, not the
/// topology's. The node-keyed queries ([`parent_of`](SteinerTree::parent_of),
/// [`children_of`](SteinerTree::children_of)) find that position by binary
/// search; the walks (breadth-first order, chains, paths to the root) and
/// callers that hold a position ([`position`](SteinerTree::position),
/// [`parent_at`](SteinerTree::parent_at),
/// [`child_positions`](SteinerTree::child_positions)) follow stored
/// positions and search nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct SteinerTree {
    /// The root (global model node in scheduler use).
    pub root: NodeId,
    /// Terminals the tree was asked to span (excluding the root).
    pub terminals: Vec<NodeId>,
    /// All nodes in the tree, ascending.
    pub nodes: Vec<NodeId>,
    /// All links in the tree, ascending.
    pub links: Vec<LinkId>,
    /// `hops[i]` = the position of `nodes[i]`'s parent (next hop towards
    /// the root) and the link to it; [`NO_POSITION`] for the root (and for
    /// a parent outside `nodes`, which only a rejected
    /// [`from_parents`](SteinerTree::from_parents) input has).
    hops: Vec<(u32, LinkId)>,
    /// CSR children index by position: the children of `nodes[i]` are
    /// `child_list[child_start[i] .. child_start[i + 1]]`, ascending, at
    /// positions `child_pos[..]` over the same range.
    child_start: Vec<u32>,
    child_list: Vec<NodeId>,
    child_pos: Vec<u32>,
    /// Total weight of the tree under the weight function it was built with.
    pub total_weight: f64,
}

/// The parent position of a [`SteinerTree`] node that has none.
pub(crate) const NO_POSITION: u32 = u32::MAX;

impl SteinerTree {
    /// Assemble the flat representation from rooted parent pointers:
    /// `nodes` ascending, `hops[i]` the position of `nodes[i]`'s parent
    /// and the link to it. A node whose parent position is
    /// [`NO_POSITION`] (the root, or a parent outside `nodes`, which only a
    /// malformed [`from_parents`](SteinerTree::from_parents) input has and
    /// its integrity check then rejects) is listed under no node.
    pub(crate) fn assemble(
        root: NodeId,
        terminals: Vec<NodeId>,
        nodes: Vec<NodeId>,
        links: Vec<LinkId>,
        hops: Vec<(u32, LinkId)>,
        total_weight: f64,
    ) -> Self {
        let k = nodes.len();
        // Children CSR: count each row into `child_start[p]`, turn the
        // counts into row ends, then fill each row backwards from its end,
        // which leaves `child_start[p]` at the row's start.
        let mut child_start = vec![0u32; k + 1];
        for &(p, _) in hops.iter().filter(|(p, _)| *p != NO_POSITION) {
            child_start[p as usize] += 1;
        }
        for i in 0..k {
            child_start[i + 1] += child_start[i];
        }
        let mut child_list = vec![NodeId(0); child_start[k] as usize];
        let mut child_pos = vec![0u32; child_start[k] as usize];
        // Walking `nodes` downwards fills each row backwards, so each
        // parent's children land in ascending order.
        for (c, (node, &(p, _))) in nodes.iter().zip(&hops).enumerate().rev() {
            if p != NO_POSITION {
                let at = &mut child_start[p as usize];
                *at -= 1;
                child_list[*at as usize] = *node;
                child_pos[*at as usize] = c as u32;
            }
        }
        SteinerTree {
            root,
            terminals,
            nodes,
            links,
            hops,
            child_start,
            child_list,
            child_pos,
            total_weight,
        }
    }

    /// Assemble a tree from rooted parent pointers — the shape incremental
    /// repair produces after grafting re-attachment paths onto a surviving
    /// fragment. `parent` must be indexed by node id over the whole
    /// topology (`parent[n] = Some((next hop towards root, link))` for
    /// every non-root tree node, `None` elsewhere); nodes and links are
    /// derived, `total_weight` is summed from `weight` over the resulting
    /// link set, and the tree keeps the entries of its own nodes only.
    ///
    /// # Errors
    /// * [`TopoError::EmptyInput`] if `parent`'s length differs from the
    ///   topology's node count,
    /// * [`TopoError::Disconnected`] if some tree node's parent chain does
    ///   not reach the root (including cycles), or a terminal is missing
    ///   from the tree.
    pub fn from_parents(
        topo: &Topology,
        root: NodeId,
        terminals: Vec<NodeId>,
        parent: Vec<Option<(NodeId, LinkId)>>,
        weight: impl Fn(LinkId) -> f64,
    ) -> Result<Self> {
        let n = topo.node_count();
        if parent.len() != n {
            return Err(TopoError::EmptyInput("parent array length"));
        }
        topo.node(root)?;
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut links: Vec<LinkId> = Vec::new();
        let mut slots: Vec<Option<(NodeId, LinkId)>> = Vec::new();
        for (i, slot) in parent.iter().enumerate() {
            let id = NodeId(i as u32);
            if id == root {
                nodes.push(id);
                slots.push(*slot);
            } else if let Some((_, l)) = slot {
                nodes.push(id);
                links.push(*l);
                slots.push(*slot);
            }
        }
        links.sort_unstable();
        let total_weight = links.iter().map(|l| weight(*l)).sum();
        let hops = slots
            .iter()
            .map(|slot| match slot {
                Some((p, l)) => match nodes.binary_search(p) {
                    Ok(i) => (i as u32, *l),
                    Err(_) => (NO_POSITION, *l),
                },
                None => (NO_POSITION, LinkId(0)),
            })
            .collect();
        let tree = SteinerTree::assemble(root, terminals, nodes, links, hops, total_weight);
        // Integrity: every tree node must hang off the root (no cycles or
        // disconnected fragments smuggled in via the parent array), and
        // every terminal must be in the tree.
        let mut order = Vec::with_capacity(tree.nodes.len());
        tree.bfs_positions_into(&mut order);
        if order.len() != tree.nodes.len() {
            // BFS follows child lists, so it terminates even when the
            // parent array smuggles in a cycle — the cycle is simply never
            // reached and shows up as a missing node here.
            let mut seen = vec![false; tree.nodes.len()];
            for &i in &order {
                seen[i as usize] = true;
            }
            let stray = tree
                .nodes
                .iter()
                .zip(&seen)
                .find_map(|(x, s)| (!s).then_some(*x))
                .unwrap_or(root);
            return Err(TopoError::Disconnected {
                from: root,
                to: stray,
            });
        }
        if let Some(missing) = tree
            .terminals
            .iter()
            .copied()
            .find(|t| *t != root && tree.parent_of(*t).is_none())
        {
            return Err(TopoError::Disconnected {
                from: root,
                to: missing,
            });
        }
        Ok(tree)
    }

    /// Position of `n` in [`nodes`](SteinerTree::nodes), if it is a tree
    /// node (one binary search).
    #[inline]
    pub fn position(&self, n: NodeId) -> Option<usize> {
        self.nodes.binary_search(&n).ok()
    }

    /// The parent of the node at position `i` as its own position and the
    /// link joining them; `None` for the root.
    ///
    /// # Panics
    /// If `i` is not a position (`i >= nodes.len()`).
    #[inline]
    pub fn parent_at(&self, i: usize) -> Option<(usize, LinkId)> {
        let (p, l) = self.hops[i];
        (p != NO_POSITION).then_some((p as usize, l))
    }

    /// Positions of the children of the node at position `i`, ascending.
    ///
    /// # Panics
    /// If `i` is not a position (`i >= nodes.len()`).
    #[inline]
    pub fn child_positions(&self, i: usize) -> &[u32] {
        &self.child_pos[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// Number of children of the node at position `i`.
    #[inline]
    fn fanout(&self, i: usize) -> usize {
        (self.child_start[i + 1] - self.child_start[i]) as usize
    }

    /// The hops from `n` up to the root, nearest first: each ancestor and
    /// the link joining it to the node below. Empty for the root and for
    /// nodes outside the tree; one search, then stored positions.
    pub fn ancestors(&self, n: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        let mut at = self.position(n);
        std::iter::from_fn(move || {
            let (p, l) = self.parent_at(at?)?;
            at = Some(p);
            Some((self.nodes[p], l))
        })
    }

    /// Parent (towards root) of a tree node, `None` for the root itself and
    /// for nodes outside the tree.
    #[inline]
    pub fn parent_of(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        let (p, l) = self.parent_at(self.position(n)?)?;
        Some((self.nodes[p], l))
    }

    /// Children of `n`, ascending (`&[]` for leaves and non-tree nodes).
    #[inline]
    pub fn children_of(&self, n: NodeId) -> &[NodeId] {
        match self.position(n) {
            Some(i) => {
                &self.child_list[self.child_start[i] as usize..self.child_start[i + 1] as usize]
            }
            None => &[],
        }
    }

    /// Directed tree edges as `(child, parent, link)` triples, the child and
    /// the parent as positions in [`nodes`](SteinerTree::nodes), ascending by
    /// child — the walk the schedulers take when rating or reserving every
    /// edge, and the index of a plan's per-edge copy counts.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, LinkId)> + '_ {
        self.hops
            .iter()
            .enumerate()
            .filter(|(_, (p, _))| *p != NO_POSITION)
            .map(|(c, (p, l))| (c, *p as usize, *l))
    }

    /// Lengths of the per-node arrays: (parent hops, children index rows).
    #[cfg(test)]
    pub(crate) fn storage_len(&self) -> (usize, usize) {
        (self.hops.len(), self.child_start.len() - 1)
    }

    /// Children map: for every tree node the nodes whose parent it is.
    /// Compatibility view over [`children_of`](SteinerTree::children_of);
    /// hot paths should use the flat accessor directly.
    pub fn children(&self) -> BTreeMap<NodeId, Vec<NodeId>> {
        self.nodes
            .iter()
            .map(|n| (*n, self.children_of(*n).to_vec()))
            .collect()
    }

    /// Path from the root down to `n` (following tree edges).
    ///
    /// # Errors
    /// [`TopoError::Disconnected`] if `n` is not in the tree.
    pub fn path_from_root(&self, n: NodeId) -> Result<Path> {
        if n == self.root {
            return Ok(Path::trivial(n));
        }
        let mut nodes = vec![n];
        let mut links = Vec::new();
        for (p, l) in self.ancestors(n) {
            nodes.push(p);
            links.push(l);
            if p == self.root {
                nodes.reverse();
                links.reverse();
                return Path::new(nodes, links);
            }
        }
        Err(TopoError::Disconnected {
            from: self.root,
            to: n,
        })
    }

    /// Depth of node `n` (root = 0), or `None` if not in the tree.
    pub fn depth(&self, n: NodeId) -> Option<usize> {
        if n == self.root {
            return Some(0);
        }
        self.ancestors(n)
            .position(|(p, _)| p == self.root)
            .map(|d| d + 1)
    }

    /// Nodes where aggregation would run during upload: every non-leaf,
    /// non-root tree node with at least one child, plus the root. These are
    /// "the middle and final nodes of the upload procedure" from the paper.
    pub fn aggregation_points(&self) -> Vec<NodeId> {
        let mut pts: Vec<NodeId> = (0..self.nodes.len())
            .filter(|i| self.fanout(*i) > 0 && self.nodes[*i] != self.root)
            .map(|i| self.nodes[i])
            .collect();
        pts.push(self.root);
        pts.sort();
        pts
    }

    /// Positions of the tree's nodes in breadth-first order from the root
    /// (each node's children ascending), written into `out` (cleared
    /// first); empty when the root is not a tree node. Reversed, it visits
    /// every node after all its descendants.
    pub fn bfs_positions_into(&self, out: &mut Vec<u32>) {
        out.clear();
        let Some(root) = self.position(self.root) else {
            return;
        };
        out.push(root as u32);
        let mut head = 0;
        while head < out.len() {
            let i = out[head] as usize;
            head += 1;
            out.extend_from_slice(self.child_positions(i));
        }
    }

    /// Whether every terminal is reachable in the tree.
    pub fn spans_all_terminals(&self) -> bool {
        self.terminals.iter().all(|t| self.depth(*t).is_some())
    }

    /// Decompose the tree into edge-disjoint chains between *significant*
    /// nodes (the root, every leaf, every branch node and every terminal).
    ///
    /// Each chain is returned oriented towards the root (child-significant
    /// node first), and every tree link appears in exactly one chain — the
    /// right granularity for grooming a multicast/aggregation tree without
    /// double-counting shared segments.
    pub fn chains(&self) -> Vec<Path> {
        let mut chains = Vec::new();
        self.for_each_chain(&mut ChainWalk::default(), |nodes, links| {
            chains
                .push(Path::new(nodes.to_vec(), links.to_vec()).expect("chain alternation holds"));
        });
        chains
    }

    /// Visit the chains of [`chains`](SteinerTree::chains), in the same
    /// order, without building them: each is walked into `walk` and shown
    /// to `visit` as its nodes and links (`links[i]` joins `nodes[i]` and
    /// `nodes[i + 1]`), so a caller that keeps `walk` allocates nothing.
    pub fn for_each_chain(
        &self,
        walk: &mut ChainWalk,
        mut visit: impl FnMut(&[NodeId], &[LinkId]),
    ) {
        let is_significant = |i: usize| {
            let n = self.nodes[i];
            n == self.root || self.terminals.contains(&n) || self.fanout(i) != 1
        };
        for start in (0..self.nodes.len()).filter(|i| is_significant(*i)) {
            if self.nodes[start] == self.root {
                continue;
            }
            // Walk from this significant node up to the nearest significant
            // ancestor.
            walk.nodes.clear();
            walk.links.clear();
            walk.nodes.push(self.nodes[start]);
            let mut cur = start;
            while let Some((p, l)) = self.parent_at(cur) {
                walk.nodes.push(self.nodes[p]);
                walk.links.push(l);
                cur = p;
                if is_significant(cur) {
                    break;
                }
            }
            if !walk.links.is_empty() {
                visit(&walk.nodes, &walk.links);
            }
        }
    }
}

/// The buffers [`SteinerTree::for_each_chain`] walks each chain into.
#[derive(Debug, Default)]
pub struct ChainWalk {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{length_weight, steiner_tree, steiner_tree_in, ScratchPool};
    use crate::builders;
    use crate::node::NodeKind;
    use std::collections::BTreeSet;

    /// The Figure-1 style topology: a hub G with locals hanging off shared
    /// transit routers, so sharing a path is cheaper than three end-to-end
    /// disjoint routes.
    fn fig1_like() -> (Topology, NodeId, [NodeId; 3]) {
        let mut t = Topology::new();
        let g = t.add_node(NodeKind::Server, "G");
        let r1 = t.add_node(NodeKind::IpRouter, "r1");
        let r2 = t.add_node(NodeKind::IpRouter, "r2");
        let l1 = t.add_node(NodeKind::Server, "L1");
        let l2 = t.add_node(NodeKind::Server, "L2");
        let l3 = t.add_node(NodeKind::Server, "L3");
        t.add_link(g, r1, 1.0, 100.0).unwrap();
        t.add_link(r1, l1, 1.0, 100.0).unwrap();
        t.add_link(g, r2, 1.0, 100.0).unwrap();
        t.add_link(r2, l2, 1.0, 100.0).unwrap();
        t.add_link(l2, l3, 1.0, 100.0).unwrap();
        t.add_link(r2, l3, 3.0, 100.0).unwrap();
        (t, g, [l1, l2, l3])
    }

    #[test]
    fn spans_all_terminals() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        assert!(st.spans_all_terminals());
        for l in ls {
            assert!(st.depth(l).is_some());
        }
    }

    #[test]
    fn reuses_shared_segment_like_figure_1() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        // Flexible connectivity: G->r2->L2->L3 reuses L2 as a relay rather
        // than the expensive direct r2->L3 link.
        assert!(st.links.len() <= 5);
        let p3 = st.path_from_root(ls[2]).unwrap();
        assert!(p3.nodes.contains(&ls[1]), "L3 should be fed via L2: {p3}");
    }

    #[test]
    fn tree_is_acyclic() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        assert_eq!(st.links.len(), st.nodes.len() - 1);
    }

    #[test]
    fn aggregation_points_include_root_and_branches() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        let pts = st.aggregation_points();
        assert!(pts.contains(&g));
        // L2 relays L3's traffic, so it must be an aggregation point.
        assert!(pts.contains(&ls[1]));
    }

    #[test]
    fn trivial_when_terminals_equal_root() {
        let (t, g, _) = fig1_like();
        let st = steiner_tree(&t, g, &[g], length_weight).unwrap();
        assert_eq!(st.nodes, vec![g]);
        assert!(st.links.is_empty());
        assert_eq!(st.total_weight, 0.0);
    }

    #[test]
    fn empty_terminals_rejected() {
        let (t, g, _) = fig1_like();
        assert!(matches!(
            steiner_tree(&t, g, &[], length_weight),
            Err(TopoError::EmptyInput(_))
        ));
    }

    #[test]
    fn disconnected_terminal_errors() {
        let (mut t, g, _) = fig1_like();
        let island = t.add_node(NodeKind::Server, "island");
        let err = steiner_tree(&t, g, &[island], length_weight).unwrap_err();
        assert!(matches!(err, TopoError::Disconnected { .. }));
    }

    #[test]
    fn path_from_root_matches_depth() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        for l in ls {
            let p = st.path_from_root(l).unwrap();
            assert_eq!(p.hop_count(), st.depth(l).unwrap());
            p.validate(&t).unwrap();
        }
    }

    #[test]
    fn steiner_no_heavier_than_union_of_shortest_paths() {
        // Upper bound: the union of per-terminal shortest paths is a valid
        // Steiner solution, so the heuristic must not exceed its weight.
        let t = builders::nsfnet();
        let root = NodeId(0);
        let terminals = [NodeId(5), NodeId(9), NodeId(12), NodeId(3)];
        let st = steiner_tree(&t, root, &terminals, length_weight).unwrap();
        let mut union_links = BTreeSet::new();
        for t2 in terminals {
            let p = crate::algo::shortest_path(&t, root, t2, length_weight).unwrap();
            union_links.extend(p.links);
        }
        let union_weight: f64 = union_links
            .iter()
            .map(|l| t.link(*l).unwrap().length_km)
            .sum();
        assert!(
            st.total_weight <= union_weight + 1e-9,
            "steiner {} > union {}",
            st.total_weight,
            union_weight
        );
    }

    #[test]
    fn bfs_order_starts_at_root_and_covers_tree() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        let mut order = vec![7];
        st.bfs_positions_into(&mut order);
        assert_eq!(st.nodes[order[0] as usize], g);
        assert_eq!(order.len(), st.nodes.len());
    }

    #[test]
    fn leaves_are_terminals_after_pruning() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        let leaves = (0..st.nodes.len()).filter(|i| st.fanout(*i) == 0);
        for leaf in leaves.map(|i| st.nodes[i]) {
            assert!(
                leaf == g || ls.contains(&leaf),
                "non-terminal leaf {leaf} survived pruning"
            );
        }
    }

    #[test]
    fn chains_cover_every_link_exactly_once() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        let chains = st.chains();
        let mut covered: Vec<_> = chains.iter().flat_map(|c| c.links.clone()).collect();
        covered.sort();
        assert_eq!(covered, st.links, "chains must partition the tree links");
        for c in &chains {
            c.validate(&t).unwrap();
        }
    }

    #[test]
    fn chains_end_at_significant_nodes() {
        let t = builders::nsfnet();
        let root = NodeId(0);
        let terminals = [NodeId(5), NodeId(9), NodeId(12)];
        let st = steiner_tree(&t, root, &terminals, length_weight).unwrap();
        for c in st.chains() {
            // Chain destination (towards root) is root, a branch, or terminal.
            let dst = c.destination();
            let is_branch = st.children_of(dst).len() > 1;
            assert!(
                dst == root || is_branch || terminals.contains(&dst),
                "chain ends at insignificant node {dst}"
            );
        }
    }

    #[test]
    fn duplicate_terminals_are_deduplicated() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &[ls[0], ls[0], ls[0]], length_weight).unwrap();
        assert!(st.spans_all_terminals());
        let p = st.path_from_root(ls[0]).unwrap();
        assert_eq!(p.destination(), ls[0]);
    }

    #[test]
    fn children_view_matches_flat_accessor() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        let map = st.children();
        assert_eq!(map.len(), st.nodes.len());
        for (n, kids) in &map {
            assert_eq!(kids.as_slice(), st.children_of(*n));
        }
        // Non-tree nodes report no children.
        assert!(st.children_of(NodeId(9999)).is_empty());
    }

    #[test]
    fn pooled_and_fresh_constructions_agree() {
        let t = builders::nsfnet();
        let mut pool = ScratchPool::new();
        for root in [NodeId(0), NodeId(7)] {
            for terms in [vec![NodeId(5)], vec![NodeId(9), NodeId(12), NodeId(3)]] {
                let fresh = steiner_tree(&t, root, &terms, length_weight).unwrap();
                let pooled = steiner_tree_in(&t, root, &terms, length_weight, &mut pool).unwrap();
                assert_eq!(fresh, pooled);
            }
        }
        assert!(
            pool.take().reachable(NodeId(7)),
            "scratches must return to the pool"
        );
    }

    #[test]
    fn from_parents_round_trips_a_built_tree() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        let weights: Vec<f64> = t.links().iter().map(length_weight).collect();
        let mut parent = vec![None; t.node_count()];
        for n in &st.nodes {
            parent[n.index()] = st.parent_of(*n);
        }
        let rebuilt =
            SteinerTree::from_parents(&t, g, st.terminals.clone(), parent, |l| weights[l.index()])
                .unwrap();
        assert_eq!(rebuilt, st);
    }

    #[test]
    fn from_parents_rejects_cycles_and_missing_terminals() {
        let (t, g, ls) = fig1_like();
        let n = t.node_count();
        let weights: Vec<f64> = t.links().iter().map(length_weight).collect();
        // A 2-cycle between l2 and l3 disconnected from the root.
        let mut parent = vec![None; n];
        let l23 = t
            .links()
            .iter()
            .find(|l| (l.a == ls[1] && l.b == ls[2]) || (l.a == ls[2] && l.b == ls[1]))
            .unwrap();
        parent[ls[1].index()] = Some((ls[2], l23.id));
        parent[ls[2].index()] = Some((ls[1], l23.id));
        assert!(matches!(
            SteinerTree::from_parents(&t, g, vec![ls[1]], parent, |l: LinkId| weights[l.index()]),
            Err(TopoError::Disconnected { .. })
        ));
        // A terminal simply absent from the parent array.
        let parent = vec![None; n];
        assert!(matches!(
            SteinerTree::from_parents(&t, g, vec![ls[0]], parent, |l: LinkId| weights[l.index()]),
            Err(TopoError::Disconnected { .. })
        ));
        // Wrong-length parent array.
        assert!(matches!(
            SteinerTree::from_parents(&t, g, vec![ls[0]], vec![None; n + 1], |l: LinkId| weights
                [l.index()]),
            Err(TopoError::EmptyInput(_))
        ));
    }

    #[test]
    fn a_tree_stores_its_own_nodes_not_the_fabric() {
        // The same decision on the metro and on the metro padded with
        // 5 000 pendant servers (appended, so every metro id stays).
        let metro = builders::metro(&builders::MetroParams::default());
        let mut padded = metro.clone();
        let routers = padded.nodes_of_kind(NodeKind::IpRouter);
        for k in 0..5_000 {
            let s = padded.add_node(NodeKind::Server, format!("pad{k}"));
            padded
                .add_link(routers[k % routers.len()], s, 1.0, 100.0)
                .unwrap();
        }
        let servers = metro.servers();
        let (root, locals) = (servers[0], &servers[3..=9]);
        let a = steiner_tree(&metro, root, locals, length_weight).unwrap();
        let b = steiner_tree(&padded, root, locals, length_weight).unwrap();
        assert_eq!((&a.nodes, &a.links), (&b.nodes, &b.links));
        for v in padded.node_ids() {
            assert_eq!(a.parent_of(v), b.parent_of(v), "parent of {v}");
            assert_eq!(a.children_of(v), b.children_of(v), "children of {v}");
        }
        let (mut order_a, mut order_b) = (Vec::new(), Vec::new());
        a.bfs_positions_into(&mut order_a);
        b.bfs_positions_into(&mut order_b);
        assert_eq!(order_a, order_b);
        assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
        for t in [&a, &b] {
            assert_eq!(t.storage_len(), (t.nodes.len(), t.nodes.len()));
        }
    }

    #[test]
    fn edges_iterate_child_parent_link_triples() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        let edges: Vec<_> = st.edges().collect();
        assert_eq!(edges.len(), st.links.len());
        for (child, parent, link) in edges {
            let (c, p) = (st.nodes[child], st.nodes[parent]);
            assert_eq!(st.parent_of(c), Some((p, link)));
            assert_eq!(st.parent_at(child), Some((parent, link)));
        }
    }
}
