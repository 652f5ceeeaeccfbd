//! Minimum spanning trees: Kruskal and Prim.
//!
//! Both operate under an arbitrary non-negative link weight function, skip
//! infinite-weight links, and break ties by ascending link id so results are
//! deterministic. Kruskal is the primary implementation; Prim exists as an
//! independent cross-check used by the property tests (both must find trees
//! of identical total weight).

use crate::algo::unionfind::UnionFind;
use crate::error::TopoError;
use crate::ids::LinkId;
use crate::link::Link;
use crate::Result;
use crate::Topology;

/// A spanning tree (or forest) returned by the MST algorithms.
#[derive(Debug, Clone, PartialEq)]
pub struct MstResult {
    /// Chosen tree links, ascending by id.
    pub links: Vec<LinkId>,
    /// Sum of weights of the chosen links.
    pub total_weight: f64,
    /// Number of connected components spanned (1 for a connected graph).
    pub components: usize,
}

/// Kruskal's algorithm over the whole topology.
///
/// Returns a minimum spanning forest when the graph (restricted to usable,
/// finite-weight links) is disconnected.
pub fn kruskal_mst(topo: &Topology, weight: impl Fn(&Link) -> f64) -> Result<MstResult> {
    let mut edges: Vec<(f64, LinkId)> = Vec::with_capacity(topo.link_count());
    for link in topo.links() {
        let w = weight(link);
        if w.is_infinite() {
            continue;
        }
        if w.is_nan() || w < 0.0 {
            return Err(TopoError::BadWeight {
                link: link.id,
                weight: w,
            });
        }
        edges.push((w, link.id));
    }
    // Sort by (weight, id) for deterministic output.
    edges.sort_by(|(wa, la), (wb, lb)| {
        wa.partial_cmp(wb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(la.cmp(lb))
    });

    let mut uf = UnionFind::new(topo.node_count());
    let mut links = Vec::new();
    let mut total = 0.0;
    for (w, id) in edges {
        let l = topo.link(id)?;
        if uf.union(l.a.index(), l.b.index()) {
            links.push(id);
            total += w;
            if uf.components() == 1 {
                break;
            }
        }
    }
    links.sort();
    Ok(MstResult {
        links,
        total_weight: total,
        components: uf.components(),
    })
}

/// Prim's algorithm, growing from node 0 then restarting per component.
///
/// Produces a forest of identical total weight to [`kruskal_mst`] (the
/// individual edge choice may differ when weights tie).
pub fn prim_mst(topo: &Topology, weight: impl Fn(&Link) -> f64) -> Result<MstResult> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct E {
        w: f64,
        link: LinkId,
        to: usize,
    }
    impl Eq for E {}
    impl Ord for E {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .w
                .partial_cmp(&self.w)
                .unwrap_or(Ordering::Equal)
                .then(other.link.cmp(&self.link))
        }
    }
    impl PartialOrd for E {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = topo.node_count();
    let mut in_tree = vec![false; n];
    let mut links = Vec::new();
    let mut total = 0.0;
    let mut components = 0usize;

    for start in 0..n {
        if in_tree[start] {
            continue;
        }
        components += 1;
        in_tree[start] = true;
        let mut heap = BinaryHeap::new();
        let push_edges = |heap: &mut BinaryHeap<E>, from: usize| -> Result<()> {
            for &(nbr, link_id) in topo.neighbors(crate::NodeId(from as u32))? {
                let l = topo.link(link_id)?;
                let w = weight(l);
                if w.is_infinite() {
                    continue;
                }
                if w.is_nan() || w < 0.0 {
                    return Err(TopoError::BadWeight {
                        link: link_id,
                        weight: w,
                    });
                }
                heap.push(E {
                    w,
                    link: link_id,
                    to: nbr.index(),
                });
            }
            Ok(())
        };
        push_edges(&mut heap, start)?;
        while let Some(E { w, link, to }) = heap.pop() {
            if in_tree[to] {
                continue;
            }
            in_tree[to] = true;
            links.push(link);
            total += w;
            push_edges(&mut heap, to)?;
        }
    }
    links.sort();
    Ok(MstResult {
        links,
        total_weight: total,
        components,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::length_weight;
    use crate::builders;
    use crate::node::NodeKind;
    use crate::NodeId;

    #[test]
    fn mst_of_triangle_drops_heaviest_edge() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::IpRouter, "a");
        let b = t.add_node(NodeKind::IpRouter, "b");
        let c = t.add_node(NodeKind::IpRouter, "c");
        t.add_link(a, b, 1.0, 10.0).unwrap();
        t.add_link(b, c, 2.0, 10.0).unwrap();
        let heavy = t.add_link(c, a, 10.0, 10.0).unwrap();
        let mst = kruskal_mst(&t, length_weight).unwrap();
        assert_eq!(mst.links.len(), 2);
        assert!(!mst.links.contains(&heavy));
        assert!((mst.total_weight - 3.0).abs() < 1e-9);
        assert_eq!(mst.components, 1);
    }

    #[test]
    fn prim_and_kruskal_agree_on_weight() {
        for seed in 0..5 {
            let t = builders::random_connected(30, 0.15, seed, 100.0);
            let k = kruskal_mst(&t, length_weight).unwrap();
            let p = prim_mst(&t, length_weight).unwrap();
            assert!(
                (k.total_weight - p.total_weight).abs() < 1e-6,
                "seed {seed}: kruskal={} prim={}",
                k.total_weight,
                p.total_weight
            );
            assert_eq!(k.links.len(), p.links.len());
        }
    }

    #[test]
    fn spanning_tree_has_n_minus_1_edges() {
        let t = builders::nsfnet();
        let mst = kruskal_mst(&t, length_weight).unwrap();
        assert_eq!(mst.links.len(), t.node_count() - 1);
        assert_eq!(mst.components, 1);
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let b = t.add_node(NodeKind::Server, "b");
        let _c = t.add_node(NodeKind::Server, "c"); // isolated
        t.add_link(a, b, 1.0, 10.0).unwrap();
        let mst = kruskal_mst(&t, length_weight).unwrap();
        assert_eq!(mst.components, 2);
        assert_ne!(mst.components, 1);
        let prim = prim_mst(&t, length_weight).unwrap();
        assert_eq!(prim.components, 2);
    }

    #[test]
    fn infinite_weight_links_are_excluded() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let b = t.add_node(NodeKind::Server, "b");
        let l = t.add_link(a, b, 1.0, 10.0).unwrap();
        let mst = kruskal_mst(&t, |_| f64::INFINITY).unwrap();
        assert!(mst.links.is_empty());
        assert!(!mst.links.contains(&l));
        assert_eq!(mst.components, 2);
    }

    #[test]
    fn negative_weights_error() {
        let t = builders::linear(3, 1.0, 10.0);
        assert!(kruskal_mst(&t, |_| -1.0).is_err());
        assert!(prim_mst(&t, |_| -1.0).is_err());
    }

    #[test]
    fn mst_links_form_acyclic_connected_subgraph() {
        let t = builders::random_connected(40, 0.2, 11, 100.0);
        let mst = kruskal_mst(&t, length_weight).unwrap();
        let mut uf = crate::algo::UnionFind::new(t.node_count());
        for l in &mst.links {
            let link = t.link(*l).unwrap();
            assert!(
                uf.union(link.a.index(), link.b.index()),
                "cycle detected in MST at {l}"
            );
        }
        assert_eq!(uf.components(), 1);
        // Touch NodeId import to confirm 0 is in the span.
        assert!(uf.connected(NodeId(0).index(), t.node_count() - 1));
    }
}
