//! The Steiner construction: an MST over Mehlhorn's single-pass sparsified
//! metric closure.
//!
//! "Find MSTs between the global model and local models" is the MST-based
//! Steiner approximation: an MST of the terminals' metric closure, expanded
//! back into physical paths. The textbook form (Kou-Markowsky-Berman) pays
//! one single-source Dijkstra per terminal plus a `k²` closure sort.
//! Mehlhorn's observation (Mehlhorn, *A faster approximation algorithm for
//! the Steiner problem in graphs*, IPL 1988) removes the `k` factor
//! entirely, and this is the only construction the crate builds trees with
//! (README "Why there is one Steiner construction"; the seed's KMB survives
//! as the reference `flexsched_bench::baseline::baseline_steiner_tree`):
//!
//! 1. **Voronoi pass** — ONE multi-source Dijkstra from *all* terminals at
//!    once. Every reached node records its distance to, parent towards,
//!    and the identity of ([`DijkstraScratch::voronoi_label`]) its nearest
//!    terminal — partitioning the graph into Voronoi regions.
//! 2. **Boundary scan** — one pass over the edge list collecting every
//!    *boundary* edge `(u, v)` with `label(u) ≠ label(v)`. Such an edge
//!    witnesses a terminal-to-terminal walk of cost
//!    `dist(u) + w(u,v) + dist(v)`; the sparse graph of all ≤ `E` boundary
//!    edges is Mehlhorn's substitute for the complete `k²` closure, and
//!    its MST weight **equals** the full closure's MST weight (Mehlhorn's
//!    theorem — pinned by the equality proptest in `tests/proptests.rs`),
//!    so the KMB 2-approximation guarantee is preserved.
//! 3. **Kruskal** over the boundary edges (packed `(cost, link)` integer
//!    sort, union-find over terminal labels).
//! 4. **Path expansion** — each chosen boundary edge expands into
//!    `u → nearest-terminal` and `v → nearest-terminal` walks along the
//!    stored parent arrays, plus the edge itself.
//! 5. **MST + prune** of the expansion subgraph (non-terminal leaves go),
//!    compared against the pruned union of root→terminal shortest paths —
//!    the lighter candidate wins — and a rooting BFS from the global-model
//!    node.
//!
//! Total cost: two Dijkstras (the Voronoi pass and the root's
//! reachability/SPT-union search) plus one `O(E log E)` sort —
//! `O(E log V)`, independent of the terminal count. A search never crosses
//! an infinite link, so when the caller prices everything outside the
//! [`terminal_core`](crate::algo::terminal_core()) at infinity (the
//! scheduler does) `V` and `E` are the core's: only the boundary scan
//! still reads one weight per fabric link.
//!
//! This is the scheduler's hot path — it runs twice per
//! `FlexibleMst::propose` — so the whole construction works on flat,
//! index-addressed state drawn from a [`ScratchPool`]: both searches, the
//! packed closure, the subgraph MST/prune arrays and the rooting adjacency.

use crate::algo::scratch::{DijkstraScratch, PruneBufs, ScratchPool, SteinerBufs};
use crate::algo::steiner::SteinerTree;
use crate::algo::unionfind::UnionFind;
use crate::error::TopoError;
use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use crate::Result;
use crate::Topology;

/// Build an MST-based Steiner tree spanning `root` and `terminals` under the
/// given link weight function (see module docs for the algorithm). Weights
/// must be non-negative; `f64::INFINITY` disables a link. Tie-breaking is
/// deterministic.
///
/// Allocates its own scratch; schedulers that build trees in a loop should
/// use [`steiner_tree_in`] with a persistent [`ScratchPool`].
///
/// # Errors
/// * [`TopoError::EmptyInput`] if `terminals` is empty,
/// * [`TopoError::Disconnected`] if some terminal is unreachable from the
///   root under finite weights,
/// * [`TopoError::TooManyTerminals`] if the terminal set exceeds the
///   32-bit Voronoi-label capacity.
pub fn steiner_tree(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weight: impl Fn(&Link) -> f64,
) -> Result<SteinerTree> {
    let mut pool = ScratchPool::new();
    steiner_tree_in(topo, root, terminals, weight, &mut pool)
}

/// [`steiner_tree`] with pooled scratch: the two searches and every work
/// array come from `pool`, so a warm scheduling loop allocates nothing
/// beyond the result tree.
///
/// Evaluates `weight` once per link — the auxiliary weight is by far the
/// most expensive per-edge quantity the searches would otherwise recompute
/// on every visit — and hands the vector to
/// [`steiner_tree_with_weights_in`]. The scheduler prices its own vector
/// on the [`terminal_core`](crate::algo::terminal_core()) instead; this
/// whole-fabric form is the reference its differential tests compare to.
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
/// Every non-trivial solve counts once in [`ScratchPool::closure_stats`].
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
    let all = terminal_set(topo, root, terminals)?;
    if all.len() == 1 {
        return Ok(trivial_tree(topo, root, terminals));
    }
    pool.count_solve();
    let mut bufs = pool.take_steiner_bufs();
    let mut root_spt = pool.take();
    let mut voronoi = pool.take();
    let result = build(
        topo,
        root,
        terminals,
        &all,
        weights,
        &mut root_spt,
        &mut voronoi,
        &mut bufs,
    );
    pool.give_back(voronoi);
    pool.give_back(root_spt);
    pool.give_back_steiner_bufs(bufs);
    result
}

#[allow(clippy::too_many_arguments)]
fn build(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    all: &[NodeId],
    weights: &[f64],
    root_spt: &mut DijkstraScratch,
    voronoi: &mut DijkstraScratch,
    bufs: &mut SteinerBufs,
) -> Result<SteinerTree> {
    // Root SPT: reachability check and the shortest-path-union candidate
    // (early exit once every terminal settles).
    root_spt.run_with_weights(topo, root, weights, Some(all))?;
    for t in all.iter().skip(1) {
        if !root_spt.reachable(*t) {
            return Err(TopoError::Disconnected { from: root, to: *t });
        }
    }

    // 1) Voronoi pass: one multi-source search from every terminal. No
    //    early exit — labels must be final on every reachable node for the
    //    boundary scan.
    voronoi.run_multi_with_weights(topo, all, weights, None)?;

    // 2+3) Boundary scan + Kruskal. Entries pack as
    //      `cost_bits << 64 | link_index`: costs are non-negative, so
    //      ascending integer order is ascending (cost, link id) order —
    //      deterministic, allocation-free, one comparison per element.
    let closure = &mut bufs.closure;
    closure.clear();
    for link in topo.links() {
        let w = weights[link.id.index()];
        if !w.is_finite() {
            continue;
        }
        let (Some(lu), Some(lv)) = (voronoi.voronoi_label(link.a), voronoi.voronoi_label(link.b))
        else {
            continue;
        };
        if lu == lv {
            continue;
        }
        let cost = voronoi.cost_to(link.a) + w + voronoi.cost_to(link.b);
        closure.push(((cost.to_bits() as u128) << 64) | u128::from(link.id.0));
    }
    closure.sort_unstable();
    let uf = &mut bufs.prune.uf;
    uf.reset(all.len());
    let boundary = &mut bufs.boundary;
    boundary.clear();
    for packed in closure.iter() {
        let l = LinkId((packed & 0xFFFF_FFFF) as u32);
        let link = topo.link(l)?;
        let (lu, lv) = (
            voronoi.voronoi_label(link.a).expect("scanned label") as usize,
            voronoi.voronoi_label(link.b).expect("scanned label") as usize,
        );
        if uf.union(lu, lv) {
            boundary.push(l);
            if uf.components() == 1 {
                break;
            }
        }
    }
    debug_assert!(connects_all(uf, all.len()), "boundary graph spans closure");

    // 4) Expand each chosen boundary edge into physical links: the edge
    //    itself plus both endpoints' walks to their nearest terminals.
    //    Indexed iteration keeps `bufs.boundary`'s allocation in the pool
    //    (it and `bufs.sub_links` live in the same struct, so iterating by
    //    reference would hold a conflicting borrow).
    bufs.sub_links.clear();
    for i in 0..bufs.boundary.len() {
        let l = bufs.boundary[i];
        let link = topo.link(l)?;
        bufs.sub_links.push(l);
        voronoi.append_path_links(link.a, &mut bufs.sub_links)?;
        voronoi.append_path_links(link.b, &mut bufs.sub_links)?;
    }
    bufs.sub_links.sort_unstable();
    bufs.sub_links.dedup();

    // 5) Candidate MST + prune vs pruned SPT union, rooting.
    let tree_links = best_of_candidate_and_spt_union(topo, all, weights, root_spt, bufs)?;
    root_and_assemble(topo, root, all, terminals, tree_links, weights, bufs)
}

fn connects_all(uf: &mut UnionFind, n: usize) -> bool {
    (1..n).all(|i| uf.connected(0, i))
}

/// Voronoi labels are terminal indices held in 32 bits; more terminals
/// than this would silently truncate, so the builders bail out with a
/// typed error first. Unreachable through the public API today — node ids
/// are themselves 32-bit — but the guard keeps the labels honest if ids
/// ever widen.
const MAX_CLOSURE_INDEX: usize = u32::MAX as usize;

/// Typed bail-out for terminal sets the labels cannot address (see
/// [`MAX_CLOSURE_INDEX`]).
fn check_closure_capacity(count: usize) -> Result<()> {
    if count > MAX_CLOSURE_INDEX {
        return Err(TopoError::TooManyTerminals {
            count,
            max: MAX_CLOSURE_INDEX,
        });
    }
    Ok(())
}

/// Validate and dedupe `[root] ∪ terminals` into the working terminal set
/// (root first, then first-seen order).
fn terminal_set(topo: &Topology, root: NodeId, terminals: &[NodeId]) -> Result<Vec<NodeId>> {
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
fn trivial_tree(topo: &Topology, root: NodeId, terminals: &[NodeId]) -> SteinerTree {
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
fn prune_to_tree(
    topo: &Topology,
    keep: &[NodeId],
    allowed: &[LinkId],
    weights: &[f64],
    bufs: &mut PruneBufs,
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

/// Step 5: MST + non-terminal-leaf pruning of the candidate subgraph held
/// in `bufs.sub_links`, compared against the pruned union of root→terminal
/// shortest paths (`root_spt` must be a completed search from the root
/// that settled every terminal).
/// Neither candidate dominates the other; the scheduler should never do
/// worse than plain shortest-path sharing, so the lighter of the two wins.
fn best_of_candidate_and_spt_union(
    topo: &Topology,
    all: &[NodeId],
    weights: &[f64],
    root_spt: &DijkstraScratch,
    bufs: &mut SteinerBufs,
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
fn root_and_assemble(
    topo: &Topology,
    root: NodeId,
    all: &[NodeId],
    terminals: &[NodeId],
    tree_links: Vec<LinkId>,
    weights: &[f64],
    bufs: &mut SteinerBufs,
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

/// MST weight of the Mehlhorn sparse closure over `[root] ∪ terminals` —
/// by Mehlhorn's theorem equal to the MST weight of the *complete* metric
/// closure. Exposed as the diagnostic the closure-equality proptest checks
/// against a brute-force all-pairs closure.
///
/// # Errors
/// Same contract as [`steiner_tree`].
pub fn sparse_closure_mst_weight(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weight: impl Fn(&Link) -> f64,
) -> Result<f64> {
    let all = terminal_set(topo, root, terminals)?;
    if all.len() == 1 {
        return Ok(0.0);
    }
    let weights: Vec<f64> = topo.links().iter().map(&weight).collect();
    let mut voronoi = DijkstraScratch::new();
    // Terminals are all sources of the Voronoi pass (distance zero), so
    // disconnection cannot show up as unreachability here — it surfaces as
    // a boundary graph whose Kruskal leaves multiple components below.
    voronoi.run_multi_with_weights(topo, &all, &weights, None)?;
    let mut edges: Vec<(u64, LinkId)> = Vec::new();
    for link in topo.links() {
        let w = weights[link.id.index()];
        if !w.is_finite() {
            continue;
        }
        let (Some(lu), Some(lv)) = (voronoi.voronoi_label(link.a), voronoi.voronoi_label(link.b))
        else {
            continue;
        };
        if lu == lv {
            continue;
        }
        let cost = voronoi.cost_to(link.a) + w + voronoi.cost_to(link.b);
        edges.push((cost.to_bits(), link.id));
    }
    edges.sort_unstable();
    let mut uf = UnionFind::new(all.len());
    let mut total = 0.0;
    for (cost_bits, l) in edges {
        let link = topo.link(l)?;
        let lu = voronoi.voronoi_label(link.a).expect("scanned label") as usize;
        let lv = voronoi.voronoi_label(link.b).expect("scanned label") as usize;
        if uf.union(lu, lv) {
            total += f64::from_bits(cost_bits);
            if uf.components() == 1 {
                break;
            }
        }
    }
    if let Some(stray) = (1..all.len()).find(|i| !uf.connected(0, *i)) {
        return Err(TopoError::Disconnected {
            from: root,
            to: all[stray],
        });
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::length_weight;
    use crate::builders;

    #[test]
    fn sparse_tree_spans_terminals_and_is_acyclic() {
        let t = builders::nsfnet();
        let root = NodeId(0);
        let terminals = [NodeId(5), NodeId(9), NodeId(12), NodeId(3)];
        let st = steiner_tree(&t, root, &terminals, length_weight).unwrap();
        assert!(st.spans_all_terminals());
        assert_eq!(st.links.len(), st.nodes.len() - 1);
        assert_eq!(st.root, root);
    }

    #[test]
    fn sparse_no_heavier_than_shortest_path_union() {
        let t = builders::spine_leaf(4, 8, 4, false, 400.0);
        let servers = t.servers();
        let root = servers[0];
        let terminals = &servers[1..=20];
        let st = steiner_tree(&t, root, terminals, length_weight).unwrap();
        let mut union_links = std::collections::BTreeSet::new();
        for t2 in terminals {
            let p = crate::algo::shortest_path(&t, root, *t2, length_weight).unwrap();
            union_links.extend(p.links);
        }
        let union_weight: f64 = union_links
            .iter()
            .map(|l| t.link(*l).unwrap().length_km)
            .sum();
        assert!(st.total_weight <= union_weight + 1e-9);
    }

    #[test]
    fn disconnected_terminal_errors() {
        let mut t = builders::nsfnet();
        let island = t.add_node(crate::NodeKind::Server, "island");
        assert!(matches!(
            steiner_tree(&t, NodeId(0), &[island], length_weight),
            Err(TopoError::Disconnected { .. })
        ));
        assert!(matches!(
            sparse_closure_mst_weight(&t, NodeId(0), &[island], length_weight),
            Err(TopoError::Disconnected { .. })
        ));
    }

    #[test]
    fn pooled_and_fresh_constructions_agree() {
        let t = builders::spine_leaf(3, 6, 3, false, 400.0);
        let servers = t.servers();
        let mut pool = ScratchPool::new();
        let fresh = steiner_tree(&t, servers[0], &servers[1..10], length_weight).unwrap();
        let pooled =
            steiner_tree_in(&t, servers[0], &servers[1..10], length_weight, &mut pool).unwrap();
        assert_eq!(fresh, pooled);
        assert!(pool.idle() > 0, "scratches must return to the pool");
    }

    #[test]
    fn a_short_priced_vector_is_rejected() {
        let t = builders::nsfnet();
        let got = steiner_tree_with_weights_in(
            &t,
            NodeId(0),
            &[NodeId(5)],
            &[1.0],
            &mut ScratchPool::new(),
        );
        assert_eq!(got, Err(TopoError::EmptyInput("per-link weights")));
    }

    #[test]
    fn packed_index_guard_is_a_typed_error_not_truncation() {
        // The guard itself: counts beyond 32-bit index capacity bail out
        // with the typed error (constructing 2^32 real terminals is not
        // possible — node ids are 32-bit — so the guard is exercised
        // directly).
        assert!(check_closure_capacity(MAX_CLOSURE_INDEX).is_ok());
        let err = check_closure_capacity(MAX_CLOSURE_INDEX + 1).unwrap_err();
        assert!(
            matches!(err, TopoError::TooManyTerminals { count, max }
                if count == MAX_CLOSURE_INDEX + 1 && max == MAX_CLOSURE_INDEX),
            "wrong error: {err}"
        );
        assert!(err.to_string().contains("packed index capacity"));
    }

    #[test]
    fn infinite_weight_links_are_excluded() {
        // Two parallel paths; pricing one at infinity forces the other.
        let t = builders::ring(6, 1.0, 100.0);
        let banned = LinkId(0);
        let st = steiner_tree(&t, NodeId(0), &[NodeId(3)], |l| {
            if l.id == banned {
                f64::INFINITY
            } else {
                1.0
            }
        })
        .unwrap();
        assert!(!st.links.contains(&banned));
        assert!(st.spans_all_terminals());
    }

    #[test]
    fn closure_weight_matches_brute_force_small() {
        // Tiny hand-checkable case on NSFNET.
        let t = builders::nsfnet();
        let all = [NodeId(0), NodeId(5), NodeId(9), NodeId(12)];
        let sparse = sparse_closure_mst_weight(&t, all[0], &all[1..], length_weight).unwrap();
        // Brute force: all-pairs shortest path costs, Kruskal by hand.
        let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                let p = crate::algo::shortest_path(&t, all[i], all[j], length_weight).unwrap();
                let cost: f64 = p.links.iter().map(|l| t.link(*l).unwrap().length_km).sum();
                pairs.push((cost, i, j));
            }
        }
        pairs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut uf = UnionFind::new(all.len());
        let full: f64 = pairs
            .iter()
            .filter(|(_, i, j)| uf.union(*i, *j))
            .map(|(c, _, _)| c)
            .sum();
        assert!(
            (sparse - full).abs() < 1e-9,
            "sparse {sparse} != full {full}"
        );
    }
}
