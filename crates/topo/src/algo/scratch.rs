//! Reusable, generation-stamped Dijkstra state.
//!
//! The flexible scheduler re-solves Steiner trees for every arriving task,
//! and each Steiner construction runs one Dijkstra per terminal — so at
//! metro scale the allocator was being hit with fresh `dist`/`parent`/
//! `visited` vectors hundreds of times per scheduling decision. A
//! [`DijkstraScratch`] keeps those arrays alive between runs and resets
//! them in O(1) by bumping a generation counter: a slot's contents are
//! valid only when its stamp equals the current generation, so no clearing
//! pass is needed. A [`ScratchPool`] recycles scratches across calls that
//! need several simultaneously live shortest-path trees (the Steiner metric
//! closure holds one per terminal).
//!
//! The search itself is exactly the algorithm in [`crate::algo::dijkstra`]
//! — same tie-breaking (cost ascending, then node id; equal-cost parent
//! replaced only by a lower link id), same error behaviour — which the
//! equivalence tests below and the proptests in `tests/proptests.rs` pin
//! down. [`crate::algo::shortest_path_tree`] is implemented on top of this
//! type, so there is a single Dijkstra implementation in the crate.

use crate::algo::terminal_core::CoreBufs;
use crate::error::TopoError;
use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use crate::path::Path;
use crate::Result;
use crate::Topology;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Priority-queue entry ordered by (cost asc, node id asc) for determinism.
///
/// The cost is stored as its IEEE-754 bit pattern: path costs are always
/// non-negative (negative weights are rejected, and `x + 0.0` can never
/// produce `-0.0` from non-negative addends), and for non-negative floats
/// the bit patterns order exactly like the values — so the heap compares
/// integers instead of calling `partial_cmp`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct QueueEntry {
    pub(crate) cost_bits: u64,
    pub(crate) node: NodeId,
}

impl QueueEntry {
    #[inline]
    fn new(cost: f64, node: NodeId) -> Self {
        QueueEntry {
            cost_bits: cost.to_bits(),
            node,
        }
    }

    #[inline]
    fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the smallest cost pops first.
        other
            .cost_bits
            .cmp(&self.cost_bits)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable single-source shortest-path state.
///
/// After [`DijkstraScratch::run`], the scratch *is* the shortest-path tree:
/// query it with [`cost_to`](DijkstraScratch::cost_to) /
/// [`parent_of`](DijkstraScratch::parent_of) /
/// [`path_to`](DijkstraScratch::path_to). Running again invalidates the
/// previous results in O(1) (generation bump) and reuses every allocation.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<f64>,
    parent: Vec<Option<(NodeId, LinkId)>>,
    /// Voronoi label: index into the run's source list of the source whose
    /// region node `i` fell into. Propagated with the parent pointer, so a
    /// node's label always names the source its parent chain terminates at.
    label: Vec<u32>,
    /// Slot `i` of `dist`/`parent`/`label` is valid iff
    /// `touched[i] == generation`.
    touched: Vec<u32>,
    /// Node `i` is settled iff `settled[i] == generation`.
    settled: Vec<u32>,
    /// Node `i` is an early-exit target iff `target[i] == generation`.
    target: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<QueueEntry>,
    source: Option<NodeId>,
    /// Work of the searches run since the scratch last went back to a
    /// [`ScratchPool`], which takes the counts over.
    work: SearchWork,
}

impl DijkstraScratch {
    /// Fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.parent.resize(n, None);
            self.label.resize(n, 0);
            self.touched.resize(n, 0);
            self.settled.resize(n, 0);
            self.target.resize(n, 0);
        }
        if self.generation == u32::MAX {
            // Generation wrap: invalidate every stamp once, then restart.
            self.touched.fill(0);
            self.settled.fill(0);
            self.target.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
        self.source = None;
    }

    #[inline]
    fn is_settled(&self, n: NodeId) -> bool {
        self.settled[n.index()] == self.generation
    }

    #[inline]
    fn dist_of(&self, n: NodeId) -> f64 {
        if self.touched[n.index()] == self.generation {
            self.dist[n.index()]
        } else {
            f64::INFINITY
        }
    }

    #[inline]
    fn parent_slot(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        if self.touched[n.index()] == self.generation {
            self.parent[n.index()]
        } else {
            None
        }
    }

    /// Run Dijkstra from `source` under `weight`, reusing the buffers.
    ///
    /// Semantics match [`crate::algo::shortest_path_tree`]: weights must be
    /// non-negative (`f64::INFINITY` disables a link), NaN or negative
    /// weights yield [`TopoError::BadWeight`], tie-breaks are by ascending
    /// link id so equal-cost runs are deterministic.
    pub fn run(
        &mut self,
        topo: &Topology,
        source: NodeId,
        weight: impl Fn(&Link) -> f64,
    ) -> Result<()> {
        self.run_core(topo, &[source], |id| Ok(weight(topo.link(id)?)), None, None)
    }

    /// Like [`run`](DijkstraScratch::run), but with per-link weights
    /// precomputed into an id-indexed slice (one weight evaluation per link
    /// instead of one per edge visit) and optional early exit: when
    /// `targets` is given the search stops as soon as every target is
    /// settled. Settled distances and parents are final in Dijkstra, so
    /// costs and reconstructed paths to the targets are identical to a full
    /// run — only unreached non-target state differs.
    pub(crate) fn run_with_weights(
        &mut self,
        topo: &Topology,
        source: NodeId,
        weights: &[f64],
        targets: Option<&[NodeId]>,
    ) -> Result<()> {
        self.run_core(
            topo,
            &[source],
            |id| Ok(weights.get(id.index()).copied().unwrap_or(f64::INFINITY)),
            targets,
            None,
        )
    }

    /// Multi-source Dijkstra over precomputed per-link weights — the
    /// Voronoi pass of [`crate::algo::mehlhorn`]. Every node in `sources`
    /// starts at distance zero, so the result is the cheapest path from the
    /// source *set* to every reached node. Parent chains terminate
    /// (`parent_of` = `None`) at whichever source is nearest; ties break
    /// exactly as in the single-source search (cost ascending, then node
    /// id, equal-cost parent replaced only by a lower link id), and each
    /// reached node records the *index* of its nearest source
    /// ([`voronoi_label`](DijkstraScratch::voronoi_label)). The pass also
    /// pushes Mehlhorn's boundary candidates onto `boundary`, unsorted:
    /// every finite-weight link whose two ends were reached with different
    /// labels, packed as `cost_bits << 64 | link_index` with cost
    /// `dist(a) + w + dist(b)`. A link is pushed when its second endpoint
    /// settles, when both distances and labels are final, so the pass
    /// reads no link it would not relax anyway.
    pub(crate) fn run_voronoi_with_boundary(
        &mut self,
        topo: &Topology,
        sources: &[NodeId],
        weights: &[f64],
        boundary: &mut Vec<u128>,
    ) -> Result<()> {
        if sources.is_empty() {
            return Err(TopoError::EmptyInput("dijkstra sources"));
        }
        boundary.clear();
        self.run_core(
            topo,
            sources,
            |id| Ok(weights.get(id.index()).copied().unwrap_or(f64::INFINITY)),
            None,
            Some(boundary),
        )
    }

    /// Multi-source Dijkstra with an on-demand weight function and optional
    /// early exit: when `targets` is given the search stops as soon as
    /// every target is settled. With targets close to the source set, most
    /// links are never visited, so skipping an up-front whole-topology
    /// weight pass is a net win — each visited edge evaluates the function
    /// at most twice.
    pub fn run_multi(
        &mut self,
        topo: &Topology,
        sources: &[NodeId],
        weight: impl Fn(LinkId) -> f64,
        targets: Option<&[NodeId]>,
    ) -> Result<()> {
        if sources.is_empty() {
            return Err(TopoError::EmptyInput("dijkstra sources"));
        }
        self.run_core(topo, sources, |id| Ok(weight(id)), targets, None)
    }

    fn run_core(
        &mut self,
        topo: &Topology,
        sources: &[NodeId],
        weight_of: impl Fn(LinkId) -> Result<f64>,
        targets: Option<&[NodeId]>,
        mut boundary: Option<&mut Vec<u128>>,
    ) -> Result<()> {
        for s in sources {
            topo.node(*s)?;
        }
        self.begin(topo.node_count());
        let generation = self.generation;
        let (mut settled, mut relaxed, mut pushed) = (0u64, 0u64, 0u64);
        let mut remaining = 0usize;
        if let Some(targets) = targets {
            for t in targets {
                topo.node(*t)?;
                if self.target[t.index()] != generation {
                    self.target[t.index()] = generation;
                    remaining += 1;
                }
            }
        }
        for (idx, s) in sources.iter().enumerate() {
            self.dist[s.index()] = 0.0;
            self.parent[s.index()] = None;
            self.label[s.index()] = idx as u32;
            self.touched[s.index()] = generation;
            self.heap.push(QueueEntry::new(0.0, *s));
        }

        while let Some(entry) = self.heap.pop() {
            let (cost, node) = (entry.cost(), entry.node);
            if self.is_settled(node) {
                continue;
            }
            self.settled[node.index()] = generation;
            settled += 1;
            if targets.is_some() && self.target[node.index()] == generation {
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            for &(nbr, link_id) in topo.neighbors(node)? {
                if self.is_settled(nbr) {
                    if let Some(out) = boundary.as_deref_mut() {
                        let w = weight_of(link_id)?;
                        if w.is_finite() && self.label[nbr.index()] != self.label[node.index()] {
                            let link = topo.link(link_id)?;
                            let cost = self.dist_of(link.a) + w + self.dist_of(link.b);
                            out.push(((cost.to_bits() as u128) << 64) | u128::from(link_id.0));
                            pushed += 1;
                        }
                    }
                    continue;
                }
                let w = weight_of(link_id)?;
                if w.is_infinite() {
                    continue; // unusable link
                }
                if w.is_nan() || w < 0.0 {
                    return Err(TopoError::BadWeight {
                        link: link_id,
                        weight: w,
                    });
                }
                relaxed += 1;
                let cand = cost + w;
                let cur = self.dist_of(nbr);
                let better = cand < cur
                    || (cand == cur && self.parent_slot(nbr).is_some_and(|(_, l)| link_id < l));
                if better {
                    let i = nbr.index();
                    self.dist[i] = cand;
                    self.parent[i] = Some((node, link_id));
                    self.label[i] = self.label[node.index()];
                    self.touched[i] = generation;
                    self.heap.push(QueueEntry::new(cand, nbr));
                }
            }
        }

        self.source = Some(sources[0]);
        self.work.searches += 1;
        self.work.settled += settled;
        self.work.relaxed += relaxed;
        self.work.boundary_edges += pushed;
        Ok(())
    }

    /// Whether `n` is reachable from the last run's source.
    pub fn reachable(&self, n: NodeId) -> bool {
        n.index() < self.touched.len() && self.dist_of(n).is_finite()
    }

    /// Cost of the cheapest path to `n` (infinite if unreachable).
    pub fn cost_to(&self, n: NodeId) -> f64 {
        if n.index() < self.touched.len() {
            self.dist_of(n)
        } else {
            f64::INFINITY
        }
    }

    /// Previous hop on the cheapest path to `n` (`None` for the source and
    /// unreachable nodes).
    pub fn parent_of(&self, n: NodeId) -> Option<(NodeId, LinkId)> {
        if n.index() < self.touched.len() {
            self.parent_slot(n)
        } else {
            None
        }
    }

    /// Voronoi label of `n`: the index (into the last run's source list) of
    /// the source whose region `n` fell into — i.e. where `n`'s parent
    /// chain terminates. `None` for unreached nodes.
    ///
    /// After a run *without* early-exit targets every reached node is
    /// settled, so all labels are final. With early exit, labels are final
    /// only for settled nodes; the Mehlhorn closure's Voronoi pass
    /// therefore never early-exits.
    pub fn voronoi_label(&self, n: NodeId) -> Option<u32> {
        (n.index() < self.touched.len() && self.touched[n.index()] == self.generation)
            .then(|| self.label[n.index()])
    }

    /// Reconstruct the cheapest path from the source to `to`.
    ///
    /// # Errors
    /// [`TopoError::Disconnected`] if `to` is unreachable.
    pub fn path_to(&self, to: NodeId) -> Result<Path> {
        let source = self.source.unwrap_or(to);
        if !self.reachable(to) {
            return Err(TopoError::Disconnected { from: source, to });
        }
        let mut nodes = vec![to];
        let mut links = Vec::new();
        let mut cur = to;
        while let Some((prev, link)) = self.parent_slot(cur) {
            nodes.push(prev);
            links.push(link);
            cur = prev;
        }
        nodes.reverse();
        links.reverse();
        Path::new(nodes, links)
    }

    /// Append the links of the cheapest source→`to` path onto `out`
    /// (allocation-free alternative to [`path_to`](DijkstraScratch::path_to)
    /// when only the link set matters; link order is `to`→source).
    ///
    /// # Errors
    /// [`TopoError::Disconnected`] if `to` is unreachable.
    pub(crate) fn append_path_links(&self, to: NodeId, out: &mut Vec<LinkId>) -> Result<()> {
        if !self.reachable(to) {
            return Err(TopoError::Disconnected {
                from: self.source.unwrap_or(to),
                to,
            });
        }
        let mut cur = to;
        while let Some((prev, link)) = self.parent_slot(cur) {
            out.push(link);
            cur = prev;
        }
        Ok(())
    }

    /// Copy the results out as a standalone [`ShortestPathTree`]
    /// (`dist`/`parent` vectors of length `n`).
    ///
    /// [`ShortestPathTree`]: crate::algo::dijkstra::ShortestPathTree
    pub(crate) fn export(&self, n: usize) -> (Vec<f64>, Vec<Option<(NodeId, LinkId)>>) {
        let mut dist = vec![f64::INFINITY; n];
        let mut parent = vec![None; n];
        for i in 0..n.min(self.touched.len()) {
            if self.touched[i] == self.generation {
                dist[i] = self.dist[i];
                parent[i] = self.parent[i];
            }
        }
        (dist, parent)
    }
}

/// Reusable flat work buffers for one Steiner-tree construction: closure
/// candidates, the label union-find, the two candidate link sets and the
/// rooting pass's arrays. Everything here is cleared-and-refilled per use;
/// pooling them removes dozens of small allocations from every scheduling
/// decision.
#[derive(Debug, Default)]
pub(crate) struct SteinerBufs {
    /// Boundary edges packed as `cost_bits << 64 | link_index`: for the
    /// non-negative costs Dijkstra produces, ascending `u128` order is
    /// exactly ascending `(cost, link id)` order, so the sort is a native
    /// integer sort.
    pub(crate) closure: Vec<u128>,
    /// The closure Kruskal's union-find over Voronoi labels.
    pub(crate) uf: crate::algo::unionfind::UnionFind,
    /// The expansion's links, ascending.
    pub(crate) sub_links: Vec<LinkId>,
    /// The root's shortest-path union, ascending.
    pub(crate) spt_union: Vec<LinkId>,
    pub(crate) rooting: RootBufs,
}

/// Work buffers for rooting the winning candidate at the global-model node:
/// every array is indexed by the tree's own node positions, so the pass
/// costs the tree, not the fabric.
#[derive(Debug, Default)]
pub(crate) struct RootBufs {
    /// The tree's nodes, ascending, before the result takes a copy.
    pub(crate) nodes: Vec<NodeId>,
    /// Positions of each tree link's endpoints.
    pub(crate) ends: Vec<(u32, u32)>,
    /// CSR offsets of `adj`, and the fill cursor that builds it.
    pub(crate) starts: Vec<u32>,
    pub(crate) cursor: Vec<u32>,
    /// Rooting adjacency: `(neighbour's position, link)` in CSR layout.
    pub(crate) adj: Vec<(u32, LinkId)>,
    /// The BFS queue of positions.
    pub(crate) queue: Vec<u32>,
}

/// A generation-stamped node → local-id map: the nodes a pass touches get
/// dense ids `0..len()` in first-seen order, so its work arrays are sized
/// by what it touches. Starting a pass is O(1) (a generation bump) once the
/// stamp array covers the topology.
#[derive(Debug, Default)]
pub(crate) struct LocalIds {
    /// Slot `n` of `local` is valid iff `stamp[n] == generation`.
    stamp: Vec<u32>,
    local: Vec<u32>,
    generation: u32,
    /// Local id → node.
    nodes: Vec<NodeId>,
}

impl LocalIds {
    /// Forget every id, for a pass over a topology of `n` nodes.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.local.resize(n, 0);
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.nodes.clear();
    }

    /// The local id of `v`, if it has one.
    #[inline]
    pub(crate) fn get(&self, v: NodeId) -> Option<usize> {
        (self.stamp[v.index()] == self.generation).then(|| self.local[v.index()] as usize)
    }

    /// The local id of `v`, and whether this call assigned it.
    #[inline]
    pub(crate) fn insert(&mut self, v: NodeId) -> (usize, bool) {
        match self.get(v) {
            Some(i) => (i, false),
            None => {
                let i = self.nodes.len();
                self.stamp[v.index()] = self.generation;
                self.local[v.index()] = i as u32;
                self.nodes.push(v);
                (i, true)
            }
        }
    }

    /// Number of ids assigned since the last reset.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind local id `i`.
    #[inline]
    pub(crate) fn node(&self, i: usize) -> NodeId {
        self.nodes[i]
    }
}

/// Reusable node-indexed work arrays for tree surgery (the incremental
/// repair's detach/prune/re-attach passes). Contents are unspecified
/// between uses; every user clears and resizes what it fills. Public
/// fields: the consumer (the scheduler's repair module) drives the
/// algorithm, this type only recycles the allocations.
#[derive(Debug, Default)]
pub struct TreeBufs {
    /// Membership mask (e.g. "still attached to the root").
    pub mask: Vec<bool>,
    /// Per-node counters (e.g. surviving child counts).
    pub counts: Vec<u32>,
    /// Second membership mask (e.g. "must not be pruned").
    pub keep: Vec<bool>,
    /// Work queue / stack of nodes.
    pub queue: Vec<NodeId>,
    /// Node list (e.g. multi-source search sources).
    pub nodes: Vec<NodeId>,
}

/// A recycling pool of [`DijkstraScratch`]es, per-link weight caches and
/// the Steiner construction's work buffers.
///
/// Callers that need several simultaneously live shortest-path trees (the
/// Steiner construction keeps the root's and the Voronoi pass's) take
/// scratches out, use them, and give them back; steady-state scheduling
/// then allocates nothing. The pool is deliberately dumb — LIFO free
/// lists — so taking and returning is branch-light.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Vec<DijkstraScratch>,
    weight_buffers: Vec<Vec<f64>>,
    /// Per-link weight vectors that hold `f64::INFINITY` in every slot
    /// while they are pooled.
    unpriced: Vec<Vec<f64>>,
    steiner_bufs: Vec<SteinerBufs>,
    tree_bufs: Vec<TreeBufs>,
    core_bufs: Vec<CoreBufs>,
    work: SearchWork,
}

/// Cumulative search work of the [`DijkstraScratch`]es given back to a
/// [`ScratchPool`], and of the Steiner solves drawn from it: exact counts,
/// so two builds that do the same algorithmic work report the same totals
/// whatever the host's speed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchWork {
    /// Searches run to completion or to their early exit.
    pub searches: u64,
    /// Nodes settled, over every search.
    pub settled: u64,
    /// Relaxations: finite-weight links scanned from a settling node to a
    /// neighbour not yet settled.
    pub relaxed: u64,
    /// Boundary edges the Voronoi passes pushed.
    pub boundary_edges: u64,
    /// Non-trivial [`crate::algo::steiner_tree_with_weights_in`] solves.
    pub solves: u64,
    /// Nodes of the trees those solves built.
    pub tree_nodes: u64,
    /// Link weights a scheduler priced for solves drawn from this pool
    /// ([`count_priced`](ScratchPool::count_priced)).
    pub priced: u64,
    /// Links of the terminal cores a scheduler priced
    /// ([`count_core_links`](ScratchPool::count_core_links)).
    pub core_links: u64,
}

impl ScratchPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a scratch (reused if available, fresh otherwise).
    pub fn take(&mut self) -> DijkstraScratch {
        self.free.pop().unwrap_or_default()
    }

    /// Return a scratch to the pool for reuse; the pool takes over the work
    /// counts of the searches it ran.
    pub fn give_back(&mut self, mut scratch: DijkstraScratch) {
        let done = std::mem::take(&mut scratch.work);
        self.work.searches += done.searches;
        self.work.settled += done.settled;
        self.work.relaxed += done.relaxed;
        self.work.boundary_edges += done.boundary_edges;
        self.free.push(scratch);
    }

    /// Take an empty per-link weight buffer (capacity reused).
    pub fn take_weights(&mut self) -> Vec<f64> {
        self.weight_buffers.pop().unwrap_or_default()
    }

    /// Return a weight buffer for reuse.
    pub fn give_back_weights(&mut self, mut buf: Vec<f64>) {
        buf.clear();
        self.weight_buffers.push(buf);
    }

    /// Take a per-link weight vector of `link_count` slots, every one
    /// `f64::INFINITY`: a caller prices the links it can use and puts those
    /// slots back to infinity before
    /// [`give_back_unpriced`](ScratchPool::give_back_unpriced). Only a
    /// change of length costs more than O(1).
    pub fn take_unpriced(&mut self, link_count: usize) -> Vec<f64> {
        let mut buf = self.unpriced.pop().unwrap_or_default();
        buf.resize(link_count, f64::INFINITY);
        buf
    }

    /// Return a vector from [`take_unpriced`](ScratchPool::take_unpriced),
    /// every slot infinite again (checked in debug builds).
    pub fn give_back_unpriced(&mut self, buf: Vec<f64>) {
        debug_assert!(
            buf.iter().all(|w| *w == f64::INFINITY),
            "an unpriced weight vector came back priced"
        );
        self.unpriced.push(buf);
    }

    /// Take a terminal-core buffer set (contents unspecified).
    pub fn take_core_bufs(&mut self) -> CoreBufs {
        self.core_bufs.pop().unwrap_or_default()
    }

    /// Return a terminal-core buffer set for reuse.
    pub fn give_back_core_bufs(&mut self, bufs: CoreBufs) {
        self.core_bufs.push(bufs);
    }

    /// Take a Steiner work-buffer set (contents unspecified; every user
    /// clears what it fills).
    pub(crate) fn take_steiner_bufs(&mut self) -> SteinerBufs {
        self.steiner_bufs.pop().unwrap_or_default()
    }

    /// Return a Steiner work-buffer set for reuse.
    pub(crate) fn give_back_steiner_bufs(&mut self, bufs: SteinerBufs) {
        self.steiner_bufs.push(bufs);
    }

    /// Take a tree-surgery buffer set (contents unspecified).
    pub fn take_tree_bufs(&mut self) -> TreeBufs {
        self.tree_bufs.pop().unwrap_or_default()
    }

    /// Return a tree-surgery buffer set for reuse.
    pub fn give_back_tree_bufs(&mut self, bufs: TreeBufs) {
        self.tree_bufs.push(bufs);
    }

    /// Count one non-trivial Steiner solve drawn from this pool.
    pub(crate) fn count_solve(&mut self) {
        self.work.solves += 1;
    }

    /// Count the `nodes` nodes of a tree a solve built.
    pub(crate) fn count_tree_nodes(&mut self, nodes: usize) {
        self.work.tree_nodes += nodes as u64;
    }

    /// Count `calls` link weights a caller priced for its solves.
    pub fn count_priced(&mut self, calls: usize) {
        self.work.priced += calls as u64;
    }

    /// Count the `links` links of a terminal core a caller priced.
    pub fn count_core_links(&mut self, links: usize) {
        self.work.core_links += links as u64;
    }

    /// Cumulative search work: every search of a scratch given back to
    /// this pool, every non-trivial solve drawn from it and the pricing
    /// its callers counted.
    pub fn work(&self) -> SearchWork {
        self.work
    }

    /// Cumulative solve counters: every non-trivial
    /// [`crate::algo::steiner_tree_with_weights_in`] drawn from this pool
    /// counts once in `full_solves`.
    pub fn closure_stats(&self) -> crate::algo::ClosureStats {
        crate::algo::ClosureStats {
            full_solves: self.work.solves,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra::shortest_path_tree;
    use crate::algo::{hop_weight, length_weight};
    use crate::builders;

    #[test]
    fn matches_fresh_dijkstra_across_reuses() {
        let mut scratch = DijkstraScratch::new();
        for seed in 0..4 {
            let t = builders::random_connected(30, 0.15, seed, 100.0);
            for src in [NodeId(0), NodeId(5), NodeId(29)] {
                scratch.run(&t, src, length_weight).unwrap();
                let fresh = shortest_path_tree(&t, src, length_weight).unwrap();
                for n in t.node_ids() {
                    assert_eq!(
                        scratch.reachable(n),
                        fresh.reachable(n),
                        "seed {seed} src {src} node {n}"
                    );
                    if fresh.reachable(n) {
                        assert_eq!(scratch.cost_to(n), fresh.cost_to(n));
                        assert_eq!(scratch.parent_of(n), fresh.parent[n.index()]);
                        assert_eq!(scratch.path_to(n).unwrap(), fresh.path_to(n).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn stale_results_do_not_leak_across_runs() {
        let big = builders::cycle(10, 1.0, 100.0);
        let small = builders::linear(3, 1.0, 100.0);
        let mut scratch = DijkstraScratch::new();
        scratch.run(&big, NodeId(0), hop_weight).unwrap();
        assert!(scratch.reachable(NodeId(9)));
        scratch.run(&small, NodeId(0), hop_weight).unwrap();
        // Node 9 was reachable in the ring; in the 3-node line it must not be.
        assert!(!scratch.reachable(NodeId(9)));
        assert_eq!(scratch.cost_to(NodeId(9)), f64::INFINITY);
        assert_eq!(scratch.parent_of(NodeId(9)), None);
    }

    #[test]
    fn bad_weight_is_rejected() {
        let t = builders::linear(3, 1.0, 100.0);
        let mut scratch = DijkstraScratch::new();
        assert!(matches!(
            scratch.run(&t, NodeId(0), |_| -1.0),
            Err(TopoError::BadWeight { .. })
        ));
        // The scratch stays usable afterwards.
        scratch.run(&t, NodeId(0), hop_weight).unwrap();
        assert!(scratch.reachable(NodeId(2)));
    }

    #[test]
    fn unknown_source_errors() {
        let t = builders::linear(3, 1.0, 100.0);
        let mut scratch = DijkstraScratch::new();
        assert!(scratch.run(&t, NodeId(99), hop_weight).is_err());
    }

    #[test]
    fn pool_recycles_scratches() {
        // A scratch that ran holds its tree; a fresh one reaches nothing.
        let t = builders::linear(3, 1.0, 100.0);
        let mut pool = ScratchPool::new();
        let mut a = pool.take();
        let mut b = pool.take();
        a.run(&t, NodeId(0), hop_weight).unwrap();
        b.run(&t, NodeId(1), hop_weight).unwrap();
        pool.give_back(a);
        pool.give_back(b);
        // Last in, first out; then the pool is empty again.
        assert_eq!(pool.take().cost_to(NodeId(1)), 0.0);
        assert_eq!(pool.take().cost_to(NodeId(0)), 0.0);
        assert!(!pool.take().reachable(NodeId(0)));
    }

    #[test]
    fn multi_source_takes_the_nearest_source() {
        // 0-1-2-3-4 line: sources {0, 4} — node 1 attaches to 0, node 3 to 4,
        // node 2 ties and must resolve deterministically (cost 2 from both;
        // first relaxation wins unless a lower link id appears at equal cost,
        // so 2's parent comes via link 1, i.e. from node 1).
        let t = builders::linear(5, 1.0, 100.0);
        let weights: Vec<f64> = t.links().iter().map(hop_weight).collect();
        let mut scratch = DijkstraScratch::new();
        scratch
            .run_voronoi_with_boundary(&t, &[NodeId(0), NodeId(4)], &weights, &mut Vec::new())
            .unwrap();
        assert_eq!(scratch.cost_to(NodeId(0)), 0.0);
        assert_eq!(scratch.cost_to(NodeId(4)), 0.0);
        assert_eq!(scratch.parent_of(NodeId(0)), None);
        assert_eq!(scratch.parent_of(NodeId(4)), None);
        assert_eq!(scratch.cost_to(NodeId(1)), 1.0);
        assert_eq!(scratch.parent_of(NodeId(1)), Some((NodeId(0), LinkId(0))));
        assert_eq!(scratch.parent_of(NodeId(3)), Some((NodeId(4), LinkId(3))));
        assert_eq!(scratch.cost_to(NodeId(2)), 2.0);
        assert_eq!(scratch.parent_of(NodeId(2)), Some((NodeId(1), LinkId(1))));
    }

    #[test]
    fn multi_source_with_one_source_matches_single_source() {
        for seed in 0..3 {
            let t = builders::random_connected(25, 0.2, seed, 100.0);
            let weights: Vec<f64> = t.links().iter().map(length_weight).collect();
            let mut single = DijkstraScratch::new();
            let mut multi = DijkstraScratch::new();
            single
                .run_with_weights(&t, NodeId(3), &weights, None)
                .unwrap();
            multi
                .run_voronoi_with_boundary(&t, &[NodeId(3)], &weights, &mut Vec::new())
                .unwrap();
            for n in t.node_ids() {
                assert_eq!(single.cost_to(n), multi.cost_to(n), "seed {seed}");
                assert_eq!(single.parent_of(n), multi.parent_of(n), "seed {seed}");
            }
        }
    }

    #[test]
    fn voronoi_labels_name_the_nearest_source() {
        // 0-1-2-3-4 line, sources {0, 4}: labels partition the line, agree
        // with the parent chains, and unreached nodes have no label.
        let t = builders::linear(5, 1.0, 100.0);
        let weights: Vec<f64> = t.links().iter().map(hop_weight).collect();
        let mut scratch = DijkstraScratch::new();
        scratch
            .run_voronoi_with_boundary(&t, &[NodeId(0), NodeId(4)], &weights, &mut Vec::new())
            .unwrap();
        assert_eq!(scratch.voronoi_label(NodeId(0)), Some(0));
        assert_eq!(scratch.voronoi_label(NodeId(4)), Some(1));
        assert_eq!(scratch.voronoi_label(NodeId(1)), Some(0));
        assert_eq!(scratch.voronoi_label(NodeId(3)), Some(1));
        // Node 2 ties; its parent resolved to node 1, so its label must
        // follow the parent chain to source 0.
        assert_eq!(scratch.voronoi_label(NodeId(2)), Some(0));
        for n in t.node_ids() {
            let mut cur = n;
            while let Some((p, _)) = scratch.parent_of(cur) {
                cur = p;
            }
            let source = [NodeId(0), NodeId(4)][scratch.voronoi_label(n).unwrap() as usize];
            assert_eq!(cur, source, "label of {n} disagrees with parent chain");
        }
        assert_eq!(scratch.voronoi_label(NodeId(99)), None);
        // A fresh run invalidates old labels in O(1).
        scratch
            .run_with_weights(&t, NodeId(2), &weights, Some(&[NodeId(2)]))
            .unwrap();
        assert_eq!(scratch.voronoi_label(NodeId(2)), Some(0));
        assert_eq!(scratch.voronoi_label(NodeId(4)), None);
    }

    #[test]
    fn work_counts_settles_relaxations_and_boundary_edges() {
        // 0-1-2-3-4 line. From node 0: five settles, four relaxations.
        // From {0, 4}: five settles, four relaxations (0→1, 4→3, 1→2,
        // 3→2) and one boundary edge, 2-3, pushed when node 2 settles.
        let t = builders::linear(5, 1.0, 100.0);
        let weights: Vec<f64> = t.links().iter().map(hop_weight).collect();
        let mut pool = ScratchPool::new();
        let mut scratch = pool.take();
        scratch.run(&t, NodeId(0), hop_weight).unwrap();
        pool.give_back(scratch);
        let one = SearchWork {
            searches: 1,
            settled: 5,
            relaxed: 4,
            ..Default::default()
        };
        assert_eq!(pool.work(), one);
        let mut scratch = pool.take();
        let mut boundary = Vec::new();
        scratch
            .run_voronoi_with_boundary(&t, &[NodeId(0), NodeId(4)], &weights, &mut boundary)
            .unwrap();
        assert_eq!(boundary.len(), 1);
        assert_eq!(pool.work(), one, "counted when the scratch comes back");
        pool.give_back(scratch);
        let want = SearchWork {
            searches: 2,
            settled: 10,
            relaxed: 8,
            boundary_edges: 1,
            ..Default::default()
        };
        assert_eq!(pool.work(), want);
        // The counts moved to the pool: giving a scratch back twice does
        // not count its searches twice.
        let scratch = pool.take();
        pool.give_back(scratch);
        assert_eq!(pool.work(), want);
    }

    #[test]
    fn multi_source_rejects_empty_sources() {
        let t = builders::linear(3, 1.0, 100.0);
        let weights: Vec<f64> = t.links().iter().map(hop_weight).collect();
        let mut scratch = DijkstraScratch::new();
        assert!(matches!(
            scratch.run_voronoi_with_boundary(&t, &[], &weights, &mut Vec::new()),
            Err(TopoError::EmptyInput(_))
        ));
    }

    #[test]
    fn multi_source_early_exit_settles_targets() {
        let t = builders::cycle(12, 1.0, 100.0);
        let weights: Vec<f64> = t.links().iter().map(hop_weight).collect();
        let mut scratch = DijkstraScratch::new();
        scratch
            .run_multi(
                &t,
                &[NodeId(0), NodeId(6)],
                |id| weights[id.index()],
                Some(&[NodeId(3), NodeId(9)]),
            )
            .unwrap();
        // Both targets sit 3 hops from the nearest source.
        assert_eq!(scratch.cost_to(NodeId(3)), 3.0);
        assert_eq!(scratch.cost_to(NodeId(9)), 3.0);
        // Walking parents from a target must land on a source.
        let mut cur = NodeId(3);
        while let Some((p, _)) = scratch.parent_of(cur) {
            cur = p;
        }
        assert!(cur == NodeId(0) || cur == NodeId(6));
    }

    #[test]
    fn generation_wrap_resets_cleanly() {
        let t = builders::linear(4, 1.0, 100.0);
        let mut scratch = DijkstraScratch::new();
        scratch.run(&t, NodeId(0), hop_weight).unwrap();
        // Force the wrap path.
        scratch.generation = u32::MAX;
        scratch.run(&t, NodeId(1), hop_weight).unwrap();
        assert_eq!(scratch.cost_to(NodeId(3)), 2.0);
        assert_eq!(scratch.cost_to(NodeId(0)), 1.0);
    }
}
