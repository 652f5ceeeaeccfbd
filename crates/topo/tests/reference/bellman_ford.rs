//! Bellman-Ford single-source shortest paths: the independent oracle the
//! Dijkstra proptests compare against (both must agree on distances for
//! non-negative weights). Test-only: the program runs Dijkstra alone.

use flexsched_topo::{Link, NodeId, Result, TopoError, Topology};

/// Distances from `source` under `weight`, `f64::INFINITY` if unreachable.
///
/// Unlike Dijkstra this runs `O(V * E)` but tolerates any non-negative
/// weight function shape without a priority queue, making it a good
/// cross-check implementation.
pub fn bellman_ford(
    topo: &Topology,
    source: NodeId,
    weight: impl Fn(&Link) -> f64,
) -> Result<Vec<f64>> {
    topo.node(source)?;
    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.index()] = 0.0;

    // Relax all (undirected) edges up to V-1 times; stop early when stable.
    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
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
            let (ai, bi) = (link.a.index(), link.b.index());
            if dist[ai] + w < dist[bi] {
                dist[bi] = dist[ai] + w;
                changed = true;
            }
            if dist[bi] + w < dist[ai] {
                dist[ai] = dist[bi] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(dist)
}

mod tests {
    use super::*;
    use flexsched_topo::algo::{hop_weight, length_weight, shortest_path_tree};
    use flexsched_topo::{builders, NodeKind};

    #[test]
    fn agrees_with_dijkstra_on_nsfnet() {
        let t = builders::nsfnet();
        let bf = bellman_ford(&t, NodeId(0), length_weight).unwrap();
        let dj = shortest_path_tree(&t, NodeId(0), length_weight).unwrap();
        for (i, (a, b)) in bf.iter().zip(dj.dist.iter()).enumerate() {
            assert!(
                (a - b).abs() < 1e-9,
                "distance mismatch at node {i}: bf={a} dijkstra={b}"
            );
        }
    }

    #[test]
    fn unreachable_stays_infinite() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a");
        let _b = t.add_node(NodeKind::Server, "b"); // isolated
        let dist = bellman_ford(&t, a, hop_weight).unwrap();
        assert_eq!(dist[0], 0.0);
        assert!(dist[1].is_infinite());
    }

    #[test]
    fn rejects_negative_weights() {
        let t = builders::linear(3, 1.0, 10.0);
        assert!(bellman_ford(&t, NodeId(0), |_| -2.0).is_err());
    }

    #[test]
    fn source_distance_is_zero() {
        let t = builders::star(4, 2.0, 10.0);
        let dist = bellman_ford(&t, NodeId(3), hop_weight).unwrap();
        assert_eq!(dist[3], 0.0);
    }
}
