//! Kruskal's minimum spanning tree over a link weight function: skips
//! infinite-weight links and breaks ties by ascending link id, so results
//! are deterministic. Test-only: the program builds its trees with
//! Mehlhorn's construction (`steiner_tree_with_weights_in`), which runs its
//! own Kruskal over the sparse closure.

use flexsched_topo::algo::UnionFind;
use flexsched_topo::{Link, LinkId, Result, TopoError, Topology};

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

mod tests {
    use super::*;
    use flexsched_topo::algo::length_weight;
    use flexsched_topo::{builders, NodeId, NodeKind};

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
    }

    #[test]
    fn mst_links_form_acyclic_connected_subgraph() {
        let t = builders::random_connected(40, 0.2, 11, 100.0);
        let mst = kruskal_mst(&t, length_weight).unwrap();
        let mut uf = UnionFind::new(t.node_count());
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
