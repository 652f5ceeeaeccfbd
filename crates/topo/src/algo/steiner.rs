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
//! pointers and children lists as id-indexed arrays computed once at
//! construction: the schedulers read them on every edge they rate, reserve
//! or repair.

use crate::error::TopoError;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;
use crate::Result;
use crate::Topology;
use std::collections::BTreeMap;

/// A tree connecting a root to a set of terminal nodes, possibly through
/// intermediate (Steiner) nodes.
///
/// Parent pointers and children lists are flat arrays indexed by the dense
/// [`NodeId`]s, computed once at construction, so the per-edge queries the
/// schedulers hammer ([`parent_of`](SteinerTree::parent_of),
/// [`children_of`](SteinerTree::children_of)) are O(1) array reads.
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
    /// `parent[n]` = next hop towards the root; `None` for the root and for
    /// nodes outside the tree. Indexed by node id over the whole topology.
    parent: Vec<Option<(NodeId, LinkId)>>,
    /// CSR children index: node `n`'s children are
    /// `child_list[child_start[n] .. child_start[n + 1]]`, ascending.
    child_start: Vec<u32>,
    child_list: Vec<NodeId>,
    /// Total weight of the tree under the weight function it was built with.
    pub total_weight: f64,
}

impl SteinerTree {
    /// Assemble the flat representation from rooted parent pointers.
    /// `parent` must be indexed by node id over the whole topology; `nodes`
    /// must be the ascending list of tree nodes.
    pub(crate) fn assemble(
        root: NodeId,
        terminals: Vec<NodeId>,
        nodes: Vec<NodeId>,
        links: Vec<LinkId>,
        parent: Vec<Option<(NodeId, LinkId)>>,
        total_weight: f64,
    ) -> Self {
        let n = parent.len();
        let mut child_start = vec![0u32; n + 1];
        for node in &nodes {
            if let Some((p, _)) = parent[node.index()] {
                child_start[p.index() + 1] += 1;
            }
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut cursor = child_start.clone();
        let mut child_list = vec![NodeId(0); child_start[n] as usize];
        // `nodes` ascends, so each parent's children land in ascending order.
        for node in &nodes {
            if let Some((p, _)) = parent[node.index()] {
                child_list[cursor[p.index()] as usize] = *node;
                cursor[p.index()] += 1;
            }
        }
        SteinerTree {
            root,
            terminals,
            nodes,
            links,
            parent,
            child_start,
            child_list,
            total_weight,
        }
    }

    /// Assemble a tree from rooted parent pointers — the shape incremental
    /// repair produces after grafting re-attachment paths onto a surviving
    /// fragment. `parent` must be indexed by node id over the whole
    /// topology (`parent[n] = Some((next hop towards root, link))` for
    /// every non-root tree node, `None` elsewhere); nodes and links are
    /// derived, and `total_weight` is summed from `weight` over the
    /// resulting link set.
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
        for (i, slot) in parent.iter().enumerate() {
            let id = NodeId(i as u32);
            if id == root {
                nodes.push(id);
            } else if let Some((_, l)) = slot {
                nodes.push(id);
                links.push(*l);
            }
        }
        links.sort_unstable();
        let total_weight = links.iter().map(|l| weight(*l)).sum();
        let tree = SteinerTree::assemble(root, terminals, nodes, links, parent, total_weight);
        // Integrity: every tree node must hang off the root (no cycles or
        // disconnected fragments smuggled in via the parent array), and
        // every terminal must be in the tree.
        let order = tree.bfs_from_root();
        if order.len() != tree.nodes.len() {
            // BFS follows child lists, so it terminates even when the
            // parent array smuggles in a cycle — the cycle is simply never
            // reached and shows up as a missing node here.
            let mut seen = vec![false; n];
            for x in &order {
                seen[x.index()] = true;
            }
            let stray = tree
                .nodes
                .iter()
                .copied()
                .find(|x| !seen[x.index()])
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

    /// Parent (towards root) of a tree node, `None` for the root itself.
    #[inline]
    pub fn parent_of(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        self.parent.get(n.index()).copied().flatten()
    }

    /// Children of `n`, ascending (`&[]` for leaves and non-tree nodes).
    #[inline]
    pub fn children_of(&self, n: NodeId) -> &[NodeId] {
        let i = n.index();
        if i + 1 < self.child_start.len() {
            &self.child_list[self.child_start[i] as usize..self.child_start[i + 1] as usize]
        } else {
            &[]
        }
    }

    /// Directed tree edges as `(child, parent, link)` triples, ascending by
    /// child id — the shape the schedulers iterate when rating or reserving
    /// every edge.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, LinkId)> + '_ {
        self.nodes
            .iter()
            .filter_map(|n| self.parent_of(*n).map(|(p, l)| (*n, p, l)))
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
        let mut cur = n;
        while let Some((p, l)) = self.parent_of(cur) {
            nodes.push(p);
            links.push(l);
            cur = p;
            if cur == self.root {
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
        let mut d = 0usize;
        let mut cur = n;
        while let Some((p, _)) = self.parent_of(cur) {
            d += 1;
            cur = p;
            if cur == self.root {
                return Some(d);
            }
        }
        None
    }

    /// Nodes where aggregation would run during upload: every non-leaf,
    /// non-root tree node with at least one child, plus the root. These are
    /// "the middle and final nodes of the upload procedure" from the paper.
    pub fn aggregation_points(&self) -> Vec<NodeId> {
        let mut pts: Vec<NodeId> = self
            .nodes
            .iter()
            .copied()
            .filter(|n| !self.children_of(*n).is_empty() && *n != self.root)
            .collect();
        pts.push(self.root);
        pts.sort();
        pts
    }

    /// Leaves of the tree (no children).
    pub fn leaves(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .copied()
            .filter(|n| self.children_of(*n).is_empty())
            .collect()
    }

    /// Nodes in breadth-first order from the root.
    pub fn bfs_from_root(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        order.push(self.root);
        let mut head = 0;
        while head < order.len() {
            let n = order[head];
            head += 1;
            order.extend_from_slice(self.children_of(n));
        }
        order
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
        let is_terminal = |n: NodeId| self.terminals.contains(&n);
        let is_significant =
            |n: NodeId| n == self.root || is_terminal(n) || self.children_of(n).len() != 1;
        for start in self.nodes.iter().copied().filter(|n| is_significant(*n)) {
            if start == self.root {
                continue;
            }
            // Walk from this significant node up to the nearest significant
            // ancestor.
            walk.nodes.clear();
            walk.links.clear();
            walk.nodes.push(start);
            let mut cur = start;
            while let Some((p, l)) = self.parent_of(cur) {
                walk.nodes.push(p);
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
        let order = st.bfs_from_root();
        assert_eq!(order[0], g);
        assert_eq!(order.len(), st.nodes.len());
    }

    #[test]
    fn leaves_are_terminals_after_pruning() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        for leaf in st.leaves() {
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
        assert!(pool.idle() > 0, "scratches must return to the pool");
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
    fn edges_iterate_child_parent_link_triples() {
        let (t, g, ls) = fig1_like();
        let st = steiner_tree(&t, g, &ls, length_weight).unwrap();
        let edges: Vec<_> = st.edges().collect();
        assert_eq!(edges.len(), st.links.len());
        for (child, parent, link) in edges {
            assert_eq!(st.parent_of(child), Some((parent, link)));
        }
    }
}
