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
//! (README "Decided, with numbers"; the seed's KMB survives
//! as the test reference in `crates/bench/tests/reference/`):
//!
//! 1. **Voronoi pass** — ONE multi-source Dijkstra from *all* terminals at
//!    once. Every reached node records its distance to, parent towards,
//!    and the identity of ([`DijkstraScratch::voronoi_label`]) its nearest
//!    terminal — partitioning the graph into Voronoi regions.
//! 2. **Boundary edges** — collected by the Voronoi pass itself: when a
//!    node settles, each link to an already settled neighbour with another
//!    label is a *boundary* edge `(u, v)` with `label(u) ≠ label(v)`
//!    (both labels and distances are final then). Such an edge
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
//!    stored parent arrays, plus the edge itself. That is already a tree
//!    with only terminal leaves: labels are constant along parent walks, so
//!    each region's walks form a subtree holding its terminal, the chosen
//!    edges span the regions as a tree, and every non-terminal walk node
//!    has its parent link plus a child link or a boundary edge.
//! 5. **The lighter candidate, rooted** — the expansion against the union
//!    of root→terminal shortest paths (one search's parent pointers, so
//!    also a tree with only terminal leaves); the expansion wins ties. An
//!    MST plus a non-terminal-leaf prune would return either unchanged, so
//!    neither runs (debug builds assert the premise). A BFS from the
//!    global-model node roots the winner.
//!
//! Total cost: two Dijkstras (the Voronoi pass and the root's
//! reachability/SPT-union search) plus one `O(E log E)` sort —
//! `O(E log V)`, independent of the terminal count. A search never crosses
//! an infinite link, so when the caller prices everything outside the
//! [`terminal_core`](crate::algo::terminal_core()) at infinity (the
//! scheduler does) `V` and `E` are the core's (the pins' blocks: on the
//! backbone, not every metro ring), and so is every later step:
//! the boundary edges come out of the Voronoi pass, and the rooting pass
//! indexes its arrays by the tree's own nodes. The result stores only its
//! own nodes.
//!
//! This is the scheduler's hot path — it runs twice per
//! `FlexibleMst::propose` — so the whole construction works on flat,
//! index-addressed state drawn from a [`ScratchPool`]: both searches, the
//! packed closure, the candidate link sets and the rooting adjacency.

use crate::algo::scratch::{DijkstraScratch, RootBufs, ScratchPool, SteinerBufs};
use crate::algo::steiner::{SteinerTree, NO_POSITION};
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
        return Ok(trivial_tree(root, terminals));
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
    if let Ok(tree) = &result {
        pool.count_tree_nodes(tree.nodes.len());
    }
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

    // 1+2) Voronoi pass: one multi-source search from every terminal, with
    //      no early exit, collecting the boundary edges as it settles
    //      nodes. Entries pack as `cost_bits << 64 | link_index`: costs are
    //      non-negative, so ascending integer order is ascending (cost, link
    //      id) order — deterministic, allocation-free, one comparison per
    //      element.
    voronoi.run_voronoi_with_boundary(topo, all, weights, &mut bufs.closure)?;

    // 3+4) Kruskal over the boundary edges; each chosen edge expands into
    //      physical links: the edge itself plus both endpoints' walks to
    //      their nearest terminals.
    bufs.closure.sort_unstable();
    bufs.uf.reset(all.len());
    bufs.sub_links.clear();
    for packed in &bufs.closure {
        let l = LinkId((packed & 0xFFFF_FFFF) as u32);
        let link = topo.link(l)?;
        let (lu, lv) = (
            voronoi.voronoi_label(link.a).expect("scanned label") as usize,
            voronoi.voronoi_label(link.b).expect("scanned label") as usize,
        );
        if bufs.uf.union(lu, lv) {
            bufs.sub_links.push(l);
            voronoi.append_path_links(link.a, &mut bufs.sub_links)?;
            voronoi.append_path_links(link.b, &mut bufs.sub_links)?;
            if bufs.uf.components() == 1 {
                break;
            }
        }
    }
    debug_assert_eq!(bufs.uf.components(), 1, "boundary graph spans closure");
    bufs.sub_links.sort_unstable();
    bufs.sub_links.dedup();

    // 5) The lighter of the expansion and the SPT union, rooted.
    let (spt_wins, weight) = best_of_candidate_and_spt_union(all, weights, root_spt, bufs)?;
    let links = if spt_wins {
        &bufs.spt_union
    } else {
        &bufs.sub_links
    };
    root_and_assemble(topo, root, all, terminals, links, weight, &mut bufs.rooting)
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
fn trivial_tree(root: NodeId, terminals: &[NodeId]) -> SteinerTree {
    SteinerTree::assemble(
        root,
        terminals.to_vec(),
        vec![root],
        Vec::new(),
        vec![(NO_POSITION, LinkId(0))],
        0.0,
    )
}

/// Step 5: whether the union of root→terminal shortest paths (`root_spt`
/// settled every terminal) is lighter than the expansion in
/// `bufs.sub_links`, and the lighter one's weight. Neither candidate
/// dominates the other; the scheduler should never do worse than plain
/// shortest-path sharing, so the lighter wins, the expansion on a tie.
/// Both weights sum in ascending link-id order.
fn best_of_candidate_and_spt_union(
    all: &[NodeId],
    weights: &[f64],
    root_spt: &DijkstraScratch,
    bufs: &mut SteinerBufs,
) -> Result<(bool, f64)> {
    let spt_union = &mut bufs.spt_union;
    spt_union.clear();
    for t in all.iter().skip(1) {
        root_spt.append_path_links(*t, spt_union)?;
    }
    spt_union.sort_unstable();
    spt_union.dedup();
    let weight_of = |links: &[LinkId]| -> f64 { links.iter().map(|l| weights[l.index()]).sum() };
    let (expansion, spt) = (weight_of(&bufs.sub_links), weight_of(spt_union));
    Ok(if expansion <= spt {
        (false, expansion)
    } else {
        (true, spt)
    })
}

/// Root `tree_links` (ascending, weighing `total_weight`) at `root` (BFS
/// over a CSR adjacency on the tree's node positions, drawn from the
/// pooled buffers) and assemble the [`SteinerTree`]. Errors
/// [`TopoError::Disconnected`] if any node of `all` is unreached.
///
/// `tree_links` is a tree whose leaves all lie in `all` (module docs):
/// debug builds assert it has one link fewer than nodes, that the BFS
/// reaches every node, and that every degree-1 node is in `all`.
fn root_and_assemble(
    topo: &Topology,
    root: NodeId,
    all: &[NodeId],
    terminals: &[NodeId],
    tree_links: &[LinkId],
    total_weight: f64,
    bufs: &mut RootBufs,
) -> Result<SteinerTree> {
    // The tree's nodes, ascending: a node's position in this list indexes
    // every array below and the result's.
    let nodes = &mut bufs.nodes;
    nodes.clear();
    nodes.push(root);
    for l in tree_links {
        let link = topo.link(*l)?;
        nodes.push(link.a);
        nodes.push(link.b);
    }
    nodes.sort_unstable();
    nodes.dedup();
    let n = nodes.len();
    let at = |v: NodeId| nodes.binary_search(&v).ok();
    let ends = &mut bufs.ends;
    ends.clear();
    let pos = |v: NodeId| at(v).expect("an endpoint is a tree node") as u32;
    for l in tree_links {
        let link = topo.link(*l)?;
        ends.push((pos(link.a), pos(link.b)));
    }
    let adj_start = &mut bufs.starts;
    adj_start.clear();
    adj_start.resize(n + 1, 0);
    for &(a, b) in ends.iter() {
        adj_start[a as usize + 1] += 1;
        adj_start[b as usize + 1] += 1;
    }
    for i in 0..n {
        adj_start[i + 1] += adj_start[i];
    }
    let cursor = &mut bufs.cursor;
    cursor.clear();
    cursor.extend_from_slice(adj_start);
    let adj = &mut bufs.adj;
    adj.clear();
    adj.resize(adj_start[n] as usize, (0, LinkId(0)));
    for (l, &(a, b)) in tree_links.iter().zip(ends.iter()) {
        let (a, b) = (a as usize, b as usize);
        adj[cursor[a] as usize] = (b as u32, *l);
        cursor[a] += 1;
        adj[cursor[b] as usize] = (a as u32, *l);
        cursor[b] += 1;
    }
    // A node is reached once it holds a hop; the root holds none.
    let mut hops: Vec<(u32, LinkId)> = vec![(NO_POSITION, LinkId(0)); n];
    let start = at(root).expect("the root is a tree node");
    let reached = |hops: &[(u32, LinkId)], i: usize| i == start || hops[i].0 != NO_POSITION;
    let queue = &mut bufs.queue;
    queue.clear();
    queue.push(start as u32);
    let mut head = 0;
    while head < queue.len() {
        let node = queue[head] as usize;
        head += 1;
        for &(nbr, l) in &adj[adj_start[node] as usize..adj_start[node + 1] as usize] {
            if !reached(&hops, nbr as usize) {
                hops[nbr as usize] = (node as u32, l);
                queue.push(nbr);
            }
        }
    }
    for t in all {
        if !at(*t).is_some_and(|i| reached(&hops, i)) {
            return Err(TopoError::Disconnected { from: root, to: *t });
        }
    }
    debug_assert!(
        (0..n).all(|i| reached(&hops, i)),
        "a tree node off the root"
    );
    debug_assert_eq!(tree_links.len() + 1, n, "the Steiner links are no tree");
    debug_assert!(
        (0..n).all(|i| adj_start[i + 1] - adj_start[i] != 1 || all.contains(&nodes[i])),
        "a Steiner tree leaf is no terminal"
    );

    Ok(SteinerTree::assemble(
        root,
        terminals.to_vec(),
        nodes.clone(),
        tree_links.to_vec(),
        hops,
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
    let mut edges: Vec<u128> = Vec::new();
    voronoi.run_voronoi_with_boundary(topo, &all, &weights, &mut edges)?;
    edges.sort_unstable();
    let mut uf = UnionFind::new(all.len());
    let mut total = 0.0;
    for packed in edges {
        let link = topo.link(LinkId((packed & 0xFFFF_FFFF) as u32))?;
        let lu = voronoi.voronoi_label(link.a).expect("scanned label") as usize;
        let lv = voronoi.voronoi_label(link.b).expect("scanned label") as usize;
        if uf.union(lu, lv) {
            total += f64::from_bits((packed >> 64) as u64);
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
        assert!(
            pool.take().reachable(servers[0]),
            "scratches must return to the pool"
        );
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
        let t = builders::cycle(6, 1.0, 100.0);
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
