//! Mehlhorn single-pass sparsified metric closure: the large-`k` Steiner
//! construction.
//!
//! The classic KMB construction in [`crate::algo::steiner`] pays one
//! single-source Dijkstra per terminal plus a `k²` closure sort — fine at
//! testbed scale, but a 100–200-terminal decision on a fat-tree-class
//! fabric spends almost all of its time re-discovering the same shortest
//! paths. Mehlhorn's observation (Mehlhorn, *A faster approximation
//! algorithm for the Steiner problem in graphs*, IPL 1988) removes the `k`
//! factor entirely:
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
//! 5. The expansion subgraph then flows through exactly the same machinery
//!    as KMB: subgraph MST + non-terminal-leaf pruning, comparison against
//!    the pruned root shortest-path union, rooting BFS
//!    ([`crate::algo::steiner`]'s shared helpers) — so at equal candidate
//!    subgraphs the two constructions return *identical* trees.
//!
//! Total cost: two Dijkstras (the Voronoi pass and the root's
//! reachability/SPT-union search) plus one `O(E log E)` sort —
//! `O(E log V)`, independent of the terminal count.

use crate::algo::scratch::{DijkstraScratch, ScratchPool};
use crate::algo::steiner::{
    best_of_candidate_and_spt_union, root_and_assemble, terminal_set, trivial_tree, SteinerTree,
};
use crate::algo::unionfind::UnionFind;
use crate::ids::{LinkId, NodeId};
use crate::link::Link;
use crate::Result;
use crate::Topology;

/// Build a Steiner tree via the Mehlhorn sparsified closure (see module
/// docs). Semantics mirror [`crate::algo::steiner_tree`]: same weight
/// contract (non-negative, `f64::INFINITY` disables a link), same errors,
/// deterministic tie-breaking.
///
/// Allocates its own scratch; schedulers that build trees in a loop should
/// use [`steiner_tree_sparse_in`] with a persistent [`ScratchPool`].
///
/// # Errors
/// * [`crate::TopoError::EmptyInput`] if `terminals` is empty,
/// * [`crate::TopoError::Disconnected`] if some terminal is unreachable
///   from the root under finite weights,
/// * [`crate::TopoError::TooManyTerminals`] if the terminal set exceeds the
///   packed closure-index capacity.
pub fn steiner_tree_sparse(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weight: impl Fn(&Link) -> f64,
) -> Result<SteinerTree> {
    let mut pool = ScratchPool::new();
    steiner_tree_sparse_in(topo, root, terminals, weight, &mut pool)
}

/// [`steiner_tree_sparse`] with pooled scratch: the two searches and every
/// work array come from `pool`, so a warm scheduling loop allocates nothing
/// beyond the result tree.
pub fn steiner_tree_sparse_in(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weight: impl Fn(&Link) -> f64,
    pool: &mut ScratchPool,
) -> Result<SteinerTree> {
    // One weight evaluation per link for the whole construction, exactly as
    // in the KMB path.
    let mut weights = pool.take_weights();
    weights.extend(topo.links().iter().map(&weight));
    let result = steiner_tree_sparse_with_weights_in(topo, root, terminals, &weights, pool);
    pool.give_back_weights(weights);
    result
}

/// [`steiner_tree_sparse_in`] over per-link weights the caller already
/// priced (`weights[l]` for link id `l`) — the sparse twin of
/// [`crate::algo::steiner_tree_with_weights_in`], so a decision that builds
/// several trees under nearly equal regimes prices the fabric once and
/// hands either construction the same vector.
///
/// The construction's read region — recorded into the pool's
/// [`crate::algo::ReadLog`] — is the **whole link set**: the boundary scan
/// walks every topology edge (weight + Voronoi labels), so unlike KMB's
/// early-exiting searches a sparse-closure decision genuinely consults
/// every link. Every non-trivial solve counts once in
/// [`ScratchPool::closure_stats`].
///
/// # Errors
/// As [`steiner_tree_sparse`], plus [`crate::TopoError::EmptyInput`] if
/// `weights` does not hold exactly one weight per link.
pub fn steiner_tree_sparse_with_weights_in(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weights: &[f64],
    pool: &mut ScratchPool,
) -> Result<SteinerTree> {
    if weights.len() != topo.link_count() {
        return Err(crate::TopoError::EmptyInput("per-link weights"));
    }
    let all = terminal_set(topo, root, terminals)?;
    pool.read_log_mut().record_all(topo.link_count());
    if all.len() == 1 {
        return Ok(trivial_tree(topo, root, terminals));
    }
    pool.count_sparse_solve();
    let mut bufs = pool.take_steiner_bufs();
    let mut root_spt = pool.take();
    let mut voronoi = pool.take();
    let result = sparse_inner(
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
fn sparse_inner(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    all: &[NodeId],
    weights: &[f64],
    root_spt: &mut DijkstraScratch,
    voronoi: &mut DijkstraScratch,
    bufs: &mut crate::algo::scratch::SteinerBufs,
) -> Result<SteinerTree> {
    // Root SPT: reachability check and the shortest-path-union candidate
    // (early exit once every terminal settles, as in KMB).
    root_spt.run_with_weights(topo, root, weights, Some(all))?;
    for t in all.iter().skip(1) {
        if !root_spt.reachable(*t) {
            return Err(crate::TopoError::Disconnected { from: root, to: *t });
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

    // 5) Shared tail: candidate MST + prune vs pruned SPT union, rooting.
    let tree_links = best_of_candidate_and_spt_union(topo, all, weights, root_spt, bufs)?;
    root_and_assemble(topo, root, all, terminals, tree_links, weights, bufs)
}

fn connects_all(uf: &mut UnionFind, n: usize) -> bool {
    (1..n).all(|i| uf.connected(0, i))
}

/// MST weight of the Mehlhorn sparse closure over `[root] ∪ terminals` —
/// by Mehlhorn's theorem equal to the MST weight of the *complete* metric
/// closure. Exposed as the diagnostic the closure-equality proptest checks
/// against a brute-force all-pairs closure.
///
/// # Errors
/// Same contract as [`steiner_tree_sparse`].
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
        return Err(crate::TopoError::Disconnected {
            from: root,
            to: all[stray],
        });
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::steiner::{check_closure_capacity, MAX_CLOSURE_INDEX};
    use crate::algo::{length_weight, steiner_tree};
    use crate::builders;
    use crate::TopoError;

    #[test]
    fn sparse_tree_spans_terminals_and_is_acyclic() {
        let t = builders::nsfnet();
        let root = NodeId(0);
        let terminals = [NodeId(5), NodeId(9), NodeId(12), NodeId(3)];
        let st = steiner_tree_sparse(&t, root, &terminals, length_weight).unwrap();
        assert!(st.spans_all_terminals());
        assert_eq!(st.links.len(), st.nodes.len() - 1);
        assert_eq!(st.root, root);
    }

    #[test]
    fn sparse_matches_kmb_on_unique_weight_topologies() {
        // Distinct random lengths make shortest paths and MSTs unique, so
        // the two closures must produce the *identical* tree, not just an
        // equal-weight one.
        for seed in 0..6 {
            let t = builders::random_connected(30, 0.15, seed, 100.0);
            let terminals: Vec<NodeId> = [5u32, 9, 13, 17, 21, 25].map(NodeId).to_vec();
            let kmb = steiner_tree(&t, NodeId(0), &terminals, length_weight).unwrap();
            let sparse = steiner_tree_sparse(&t, NodeId(0), &terminals, length_weight).unwrap();
            assert_eq!(kmb, sparse, "seed {seed}");
        }
    }

    #[test]
    fn sparse_no_heavier_than_shortest_path_union() {
        let t = builders::spine_leaf(4, 8, 4, false, 400.0);
        let servers = t.servers();
        let root = servers[0];
        let terminals = &servers[1..=20];
        let st = steiner_tree_sparse(&t, root, terminals, length_weight).unwrap();
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
    fn trivial_and_error_cases_match_kmb() {
        let t = builders::nsfnet();
        // Terminals equal to the root: trivial tree.
        let st = steiner_tree_sparse(&t, NodeId(0), &[NodeId(0)], length_weight).unwrap();
        assert_eq!(st.nodes, vec![NodeId(0)]);
        assert!(st.links.is_empty());
        // Empty terminal set rejected.
        assert!(matches!(
            steiner_tree_sparse(&t, NodeId(0), &[], length_weight),
            Err(TopoError::EmptyInput(_))
        ));
    }

    #[test]
    fn disconnected_terminal_errors() {
        let mut t = builders::nsfnet();
        let island = t.add_node(crate::NodeKind::Server, "island");
        assert!(matches!(
            steiner_tree_sparse(&t, NodeId(0), &[island], length_weight),
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
        let fresh = steiner_tree_sparse(&t, servers[0], &servers[1..10], length_weight).unwrap();
        let pooled =
            steiner_tree_sparse_in(&t, servers[0], &servers[1..10], length_weight, &mut pool)
                .unwrap();
        assert_eq!(fresh, pooled);
        assert!(pool.idle() > 0, "scratches must return to the pool");
    }

    #[test]
    fn a_short_priced_vector_is_rejected() {
        let t = builders::nsfnet();
        let got = steiner_tree_sparse_with_weights_in(
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
        let st = steiner_tree_sparse(&t, NodeId(0), &[NodeId(3)], |l| {
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
