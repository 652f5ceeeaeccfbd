//! MST-based Steiner tree: the algorithmic core of the paper's flexible
//! scheduler.
//!
//! The poster describes the flexible scheduler as: build an auxiliary graph,
//! weight its links by bandwidth consumption and latency, then "find MSTs
//! between the global model and local models". Connecting a *subset* of
//! vertices (the global model node and the selected local model nodes) with
//! minimum total link weight is the Steiner tree problem; the classic
//! MST-based approximation (Kou-Markowsky-Berman) is exactly "an MST between
//! the terminals" over the metric closure:
//!
//! 1. compute all-terminal-pairs shortest paths (metric closure),
//! 2. build an MST of the complete terminal graph,
//! 3. expand each MST edge back into its physical shortest path,
//! 4. take an MST of the resulting subgraph and prune non-terminal leaves.
//!
//! The result is rooted at the global-model node so that broadcast trees
//! (root -> leaves) and upload trees (leaves -> root, with aggregation at
//! branch points) fall out directly.
//!
//! This is the scheduler's hot path — it runs twice per
//! `FlexibleMst::schedule`, once per arriving task per procedure — so the
//! whole construction works on flat, index-addressed state: the metric
//! closure reuses pooled [`DijkstraScratch`]es (one Dijkstra per terminal,
//! no per-call `dist`/`parent` allocations via [`steiner_tree_in`]), the
//! subgraph MST/prune steps use dense degree/adjacency arrays, and the
//! resulting [`SteinerTree`] stores its parent pointers and children lists
//! as id-indexed arrays computed once at construction.

use crate::algo::scratch::{DijkstraScratch, ScratchPool};
use crate::error::TopoError;
use crate::ids::{LinkId, NodeId};
use crate::link::Link;
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
    fn assemble(
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

/// Closure entries pack terminal indices into 32 bits each (the
/// `cost << 64 | i << 32 | j` format both closure variants sort); more
/// terminals than this would silently truncate, so the builders bail out
/// with a typed error first. Unreachable through the public API today —
/// node ids are themselves 32-bit — but the guard keeps the packing honest
/// if ids ever widen.
pub(crate) const MAX_CLOSURE_INDEX: usize = u32::MAX as usize;

/// Typed bail-out for terminal sets the packed closure format cannot
/// address (see [`MAX_CLOSURE_INDEX`]).
pub(crate) fn check_closure_capacity(count: usize) -> Result<()> {
    if count > MAX_CLOSURE_INDEX {
        return Err(TopoError::TooManyTerminals {
            count,
            max: MAX_CLOSURE_INDEX,
        });
    }
    Ok(())
}

/// Validate and dedupe `[root] ∪ terminals` into the working terminal set
/// both closure variants operate on (root first, then first-seen order).
pub(crate) fn terminal_set(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
) -> Result<Vec<NodeId>> {
    if terminals.is_empty() {
        return Err(TopoError::EmptyInput("steiner terminals"));
    }
    topo.node(root)?;
    let mut all: Vec<NodeId> = Vec::with_capacity(terminals.len() + 1);
    all.push(root);
    for t in terminals {
        topo.node(*t)?;
        if *t != root && !all.contains(t) {
            all.push(*t);
        }
    }
    check_closure_capacity(all.len())?;
    Ok(all)
}

/// The tree when every terminal coincides with the root.
pub(crate) fn trivial_tree(topo: &Topology, root: NodeId, terminals: &[NodeId]) -> SteinerTree {
    SteinerTree::assemble(
        root,
        terminals.to_vec(),
        vec![root],
        Vec::new(),
        vec![None; topo.node_count()],
        0.0,
    )
}

/// Kruskal MST of the subgraph spanned by `allowed`, then repeatedly prune
/// leaves that are not in `keep`. Returns the surviving links ascending.
///
/// Equivalent to running `kruskal_mst` with infinite weight outside
/// `allowed` (same (weight, id) edge ordering, same union-find), but only
/// touches the O(|allowed|) subgraph instead of sorting every topology
/// link, and draws every work array from the pooled `bufs`.
pub(crate) fn prune_to_tree(
    topo: &Topology,
    keep: &[NodeId],
    allowed: &[LinkId],
    weights: &[f64],
    bufs: &mut crate::algo::scratch::PruneBufs,
) -> Result<Vec<LinkId>> {
    // Kruskal over the allowed links only, sorted by (weight, id).
    let edges = &mut bufs.edges;
    edges.clear();
    for id in allowed {
        let w = weights[id.index()];
        if w.is_infinite() {
            continue;
        }
        if w.is_nan() || w < 0.0 {
            return Err(TopoError::BadWeight {
                link: *id,
                weight: w,
            });
        }
        edges.push((w, *id));
    }
    // (weight, id) pairs are distinct in id: total order, unstable is fine.
    edges.sort_unstable_by(|(wa, la), (wb, lb)| {
        wa.partial_cmp(wb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(la.cmp(lb))
    });
    let n = topo.node_count();
    bufs.uf.reset(n);
    let tree_links = &mut bufs.mst_links;
    tree_links.clear();
    for (_, id) in edges.iter() {
        let l = topo.link(*id)?;
        if bufs.uf.union(l.a.index(), l.b.index()) {
            tree_links.push(*id);
        }
    }
    tree_links.sort_unstable();

    // Iterative leaf pruning on flat degree/incidence arrays: peel degree-1
    // nodes that are not terminals until none remain.
    let degree = &mut bufs.degree;
    degree.clear();
    degree.resize(n, 0);
    let incident_start = &mut bufs.starts;
    incident_start.clear();
    incident_start.resize(n + 1, 0);
    for id in tree_links.iter() {
        let l = topo.link(*id)?;
        incident_start[l.a.index() + 1] += 1;
        incident_start[l.b.index() + 1] += 1;
        degree[l.a.index()] += 1;
        degree[l.b.index()] += 1;
    }
    for i in 0..n {
        incident_start[i + 1] += incident_start[i];
    }
    let cursor = &mut bufs.cursor;
    cursor.clear();
    cursor.extend_from_slice(incident_start);
    let incident = &mut bufs.incident;
    incident.clear();
    incident.resize(incident_start[n] as usize, 0);
    for (pos, id) in tree_links.iter().enumerate() {
        let l = topo.link(*id)?;
        for endpoint in [l.a, l.b] {
            incident[cursor[endpoint.index()] as usize] = pos as u32;
            cursor[endpoint.index()] += 1;
        }
    }
    let keep_mask = &mut bufs.keep_mask;
    keep_mask.clear();
    keep_mask.resize(n, false);
    for k in keep {
        keep_mask[k.index()] = true;
    }
    let alive = &mut bufs.alive;
    alive.clear();
    alive.resize(tree_links.len(), true);
    let queue = &mut bufs.queue;
    queue.clear();
    queue.extend(
        (0..n as u32)
            .map(NodeId)
            .filter(|x| degree[x.index()] == 1 && !keep_mask[x.index()]),
    );
    while let Some(leaf) = queue.pop() {
        if degree[leaf.index()] != 1 {
            continue; // became isolated (or re-queued stale entry)
        }
        let range =
            incident_start[leaf.index()] as usize..incident_start[leaf.index() + 1] as usize;
        let Some(&pos) = incident[range].iter().find(|&&p| alive[p as usize]) else {
            continue;
        };
        alive[pos as usize] = false;
        let l = topo.link(tree_links[pos as usize])?;
        for endpoint in [l.a, l.b] {
            degree[endpoint.index()] -= 1;
            if degree[endpoint.index()] == 1 && !keep_mask[endpoint.index()] {
                queue.push(endpoint);
            }
        }
    }
    Ok(tree_links
        .iter()
        .zip(alive.iter())
        .filter_map(|(id, a)| a.then_some(*id))
        .collect())
}

/// Build an MST-based Steiner tree spanning `root` and `terminals` under the
/// given link weight function (see module docs for the algorithm).
///
/// Allocates its own scratch; schedulers that build trees in a loop should
/// use [`steiner_tree_in`] with a persistent [`ScratchPool`].
///
/// # Errors
/// * [`TopoError::EmptyInput`] if `terminals` is empty,
/// * [`TopoError::Disconnected`] if some terminal is unreachable from the
///   root under finite weights.
pub fn steiner_tree(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weight: impl Fn(&Link) -> f64,
) -> Result<SteinerTree> {
    let mut pool = ScratchPool::new();
    steiner_tree_in(topo, root, terminals, weight, &mut pool)
}

/// [`steiner_tree`] with pooled Dijkstra scratch: the metric closure's
/// per-terminal searches reuse `pool`'s buffers instead of allocating, so a
/// scheduler that keeps one pool per thread allocates no shortest-path
/// state in steady operation.
///
/// Evaluates `weight` once per link — the auxiliary weight is by far the
/// most expensive per-edge quantity the searches would otherwise recompute
/// on every visit — and hands the vector to
/// [`steiner_tree_with_weights_in`], whose read-region contract it shares.
pub fn steiner_tree_in(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weight: impl Fn(&Link) -> f64,
    pool: &mut ScratchPool,
) -> Result<SteinerTree> {
    let mut weights = pool.take_weights();
    weights.extend(topo.links().iter().map(&weight));
    let result = steiner_tree_with_weights_in(topo, root, terminals, &weights, pool);
    pool.give_back_weights(weights);
    result
}

/// [`steiner_tree_in`] over per-link weights the caller already priced
/// (`weights[l]` for link id `l`), so a decision that builds several trees
/// under nearly equal regimes prices the fabric once and patches the
/// vector in between.
///
/// As a side effect, every search's consulted links are absorbed into the
/// pool's [`crate::algo::ReadLog`] — the construction's semantic read
/// region. (The precomputed vector is only a cache; the decision depends
/// on exactly the entries the searches consult, and the later
/// MST/prune/rooting steps touch only links the searches already visited.)
///
/// # Errors
/// As [`steiner_tree`], plus [`TopoError::EmptyInput`] if `weights` does
/// not hold exactly one weight per link.
pub fn steiner_tree_with_weights_in(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weights: &[f64],
    pool: &mut ScratchPool,
) -> Result<SteinerTree> {
    if weights.len() != topo.link_count() {
        return Err(TopoError::EmptyInput("per-link weights"));
    }
    let mut spts: Vec<DijkstraScratch> = Vec::new();
    let mut bufs = pool.take_steiner_bufs();
    let result = steiner_tree_inner(topo, root, terminals, weights, pool, &mut spts, &mut bufs);
    pool.give_back_steiner_bufs(bufs);
    for s in spts {
        pool.read_log_mut().absorb(&s);
        pool.give_back(s);
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn steiner_tree_inner(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weights: &[f64],
    pool: &mut ScratchPool,
    spts: &mut Vec<DijkstraScratch>,
    bufs: &mut crate::algo::scratch::SteinerBufs,
) -> Result<SteinerTree> {
    let all = terminal_set(topo, root, terminals)?;
    if all.len() == 1 {
        // All terminals equal the root: trivial tree.
        return Ok(trivial_tree(topo, root, terminals));
    }

    // 1) Metric closure: shortest path trees from every terminal, computed
    //    into pooled scratches over the precomputed weights. spts[i] is
    //    only ever queried for terminals j > i (closure pairs are (i, j)
    //    with i < j, expansion reads spts[i], and the root's tree also
    //    serves the reachability check and the shortest-path-union
    //    candidate), so search i stops once `all[i..]` is settled and the
    //    last terminal's search is skipped entirely.
    for (i, t) in all.iter().enumerate().take(all.len() - 1) {
        let mut scratch = pool.take();
        scratch.run_with_weights(topo, *t, weights, Some(&all[i..]))?;
        spts.push(scratch);
    }
    for t in all.iter().skip(1) {
        if !spts[0].reachable(*t) {
            return Err(TopoError::Disconnected { from: root, to: *t });
        }
    }

    // 2) MST over the complete terminal graph (Kruskal on closure edges).
    // Entries are packed as `cost_bits << 64 | i << 32 | j`; costs are
    // non-negative, so ascending integer order is ascending (cost, i, j)
    // order — the exact ordering the unpacked sort used.
    let closure = &mut bufs.closure;
    closure.clear();
    for (i, spt) in spts.iter().enumerate() {
        for (j, t) in all.iter().enumerate().skip(i + 1) {
            let cost = spt.cost_to(*t);
            closure.push(((cost.to_bits() as u128) << 64) | ((i as u128) << 32) | j as u128);
        }
    }
    closure.sort_unstable();
    let uf = &mut bufs.prune.uf;
    uf.reset(all.len());
    let closure_edges = &mut bufs.closure_edges;
    closure_edges.clear();
    for packed in closure.iter() {
        let i = ((packed >> 32) & 0xFFFF_FFFF) as usize;
        let j = (packed & 0xFFFF_FFFF) as usize;
        if uf.union(i, j) {
            closure_edges.push((i, j));
            if uf.components() == 1 {
                break;
            }
        }
    }

    // 3) Expand closure edges into physical links (union of paths).
    let sub_links = &mut bufs.sub_links;
    sub_links.clear();
    for (i, j) in closure_edges.iter() {
        spts[*i].append_path_links(all[*j], sub_links)?;
    }
    sub_links.sort_unstable();
    sub_links.dedup();

    // 4+5) MST of the expansion subgraph + prune, compared against the
    //      pruned shortest-path union, then rooted — shared with the
    //      Mehlhorn construction.
    let tree_links = best_of_candidate_and_spt_union(topo, &all, weights, &spts[0], bufs)?;
    root_and_assemble(topo, root, &all, terminals, tree_links, weights, bufs)
}

/// Steps 4–5 shared by both closure variants: MST + non-terminal-leaf
/// pruning of the candidate subgraph held in `bufs.sub_links`, compared
/// against the pruned union of root→terminal shortest paths (`root_spt`
/// must be a completed search from the root that settled every terminal).
/// Neither candidate dominates the other; the scheduler should never do
/// worse than plain shortest-path sharing, so the lighter of the two wins.
pub(crate) fn best_of_candidate_and_spt_union(
    topo: &Topology,
    all: &[NodeId],
    weights: &[f64],
    root_spt: &DijkstraScratch,
    bufs: &mut crate::algo::scratch::SteinerBufs,
) -> Result<Vec<LinkId>> {
    let sub_links = &mut bufs.sub_links;
    let candidate_links = prune_to_tree(topo, all, sub_links, weights, &mut bufs.prune)?;

    let spt_union = &mut bufs.spt_union;
    spt_union.clear();
    for t in all.iter().skip(1) {
        root_spt.append_path_links(*t, spt_union)?;
    }
    spt_union.sort_unstable();
    spt_union.dedup();
    // Identical candidate subgraphs prune identically; skip the rerun.
    let spt_links = if spt_union == sub_links {
        candidate_links.clone()
    } else {
        prune_to_tree(topo, all, spt_union, weights, &mut bufs.prune)?
    };

    let weight_of = |links: &[LinkId]| -> f64 { links.iter().map(|l| weights[l.index()]).sum() };
    Ok(if weight_of(&candidate_links) <= weight_of(&spt_links) {
        candidate_links
    } else {
        spt_links
    })
}

/// Root `tree_links` at `root` (BFS over a CSR adjacency drawn from the
/// pooled buffers) and assemble the flat [`SteinerTree`]. Errors
/// [`TopoError::Disconnected`] if any node of `all` is unreached.
pub(crate) fn root_and_assemble(
    topo: &Topology,
    root: NodeId,
    all: &[NodeId],
    terminals: &[NodeId],
    tree_links: Vec<LinkId>,
    weights: &[f64],
    bufs: &mut crate::algo::scratch::SteinerBufs,
) -> Result<SteinerTree> {
    let n = topo.node_count();
    let adj_start = &mut bufs.prune.starts;
    adj_start.clear();
    adj_start.resize(n + 1, 0);
    for l in &tree_links {
        let link = topo.link(*l)?;
        adj_start[link.a.index() + 1] += 1;
        adj_start[link.b.index() + 1] += 1;
    }
    for i in 0..n {
        adj_start[i + 1] += adj_start[i];
    }
    let cursor = &mut bufs.prune.cursor;
    cursor.clear();
    cursor.extend_from_slice(adj_start);
    let adj = &mut bufs.adj;
    adj.clear();
    adj.resize(adj_start[n] as usize, (NodeId(0), LinkId(0)));
    for l in &tree_links {
        let link = topo.link(*l)?;
        adj[cursor[link.a.index()] as usize] = (link.b, *l);
        cursor[link.a.index()] += 1;
        adj[cursor[link.b.index()] as usize] = (link.a, *l);
        cursor[link.b.index()] += 1;
    }
    let mut parent: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let visited = &mut bufs.visited;
    visited.clear();
    visited.resize(n, false);
    visited[root.index()] = true;
    let queue = &mut bufs.prune.queue;
    queue.clear();
    queue.push(root);
    let mut head = 0;
    while head < queue.len() {
        let node = queue[head];
        head += 1;
        let range = adj_start[node.index()] as usize..adj_start[node.index() + 1] as usize;
        for &(nbr, l) in &adj[range] {
            if !visited[nbr.index()] {
                visited[nbr.index()] = true;
                parent[nbr.index()] = Some((node, l));
                queue.push(nbr);
            }
        }
    }
    for t in all {
        if !visited[t.index()] {
            return Err(TopoError::Disconnected { from: root, to: *t });
        }
    }

    let total_weight = tree_links.iter().map(|l| weights[l.index()]).sum();
    let nodes: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|x| visited[x.index()])
        .collect();
    Ok(SteinerTree::assemble(
        root,
        terminals.to_vec(),
        nodes,
        tree_links,
        parent,
        total_weight,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::length_weight;
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
