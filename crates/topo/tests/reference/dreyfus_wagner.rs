//! Dreyfus–Wagner: the exact minimum Steiner tree, the optimum the Steiner
//! heuristic's 2(1 − 1/k) bound is measured against. Test-only: the program
//! builds its trees with Mehlhorn's construction.

use flexsched_topo::{NodeId, Topology};

/// Weight of a lightest tree that connects `root` and every terminal over
/// the links whose `weights[link]` is finite, or `None` when no such tree
/// exists. The root and repeated terminals count once. Weights must be
/// non-negative; parallel links are distinct edges.
///
/// With `k` distinct pins and `n` nodes this costs O(3^k·n + 2^k·n²), so it
/// is meant for k ≤ 9 on fabrics of a few hundred nodes.
pub fn steiner_optimum(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weights: &[f64],
) -> Option<f64> {
    let mut pins = vec![root];
    for t in terminals {
        if !pins.contains(t) {
            pins.push(*t);
        }
    }
    let n = topo.node_count();
    let full = (1usize << pins.len()) - 1;
    // cost[s * n + v]: weight of a lightest tree spanning node v and the
    // pins of subset s.
    let mut cost = vec![f64::INFINITY; (full + 1) * n];
    for s in 1..=full {
        let row = s * n;
        if s.is_power_of_two() {
            cost[row + pins[s.trailing_zeros() as usize].index()] = 0.0;
        } else {
            // Two subtrees meeting at v; each unordered split once, by
            // giving `s`'s lowest pin to the first half.
            let low = s & s.wrapping_neg();
            let mut a = (s - 1) & s;
            while a > 0 {
                if a & low != 0 {
                    for v in 0..n {
                        let c = cost[a * n + v] + cost[(s ^ a) * n + v];
                        if c < cost[row + v] {
                            cost[row + v] = c;
                        }
                    }
                }
                a = (a - 1) & s;
            }
        }
        relax(topo, weights, &mut cost[row..row + n]);
    }
    let best = cost[full * n + root.index()];
    best.is_finite().then_some(best)
}

/// Dijkstra from every node at once, each starting at its current value:
/// afterwards `dist[v]` is the least `start[u] + d(u, v)` over all `u`.
fn relax(topo: &Topology, weights: &[f64], dist: &mut [f64]) {
    let mut done = vec![false; dist.len()];
    while let Some(u) = (0..dist.len())
        .filter(|v| !done[*v] && dist[*v].is_finite())
        .min_by(|a, b| dist[*a].total_cmp(&dist[*b]))
    {
        done[u] = true;
        for &(v, l) in topo.neighbors(NodeId(u as u32)).expect("node of topo") {
            let through = dist[u] + weights[l.index()];
            if through < dist[v.index()] {
                dist[v.index()] = through;
            }
        }
    }
}

mod tests {
    use super::*;
    use flexsched_topo::builders;

    #[test]
    fn optimum_of_a_star_beats_the_terminal_paths() {
        // Three leaves around a hub: the optimum is the star (3 links),
        // where any tree over terminal-to-terminal paths costs 4.
        let t = builders::star(3, 1.0, 10.0);
        let hub_and_leaves: Vec<NodeId> = t.node_ids().collect();
        let w = vec![1.0; t.link_count()];
        let leaves = &hub_and_leaves[1..];
        assert_eq!(steiner_optimum(&t, leaves[0], &leaves[1..], &w), Some(3.0));
    }

    #[test]
    fn no_tree_across_a_disabled_cut() {
        let t = builders::linear(3, 1.0, 10.0);
        let w = [1.0, f64::INFINITY];
        assert_eq!(steiner_optimum(&t, NodeId(0), &[NodeId(1)], &w), Some(1.0));
        assert_eq!(steiner_optimum(&t, NodeId(0), &[NodeId(2)], &w), None);
        assert_eq!(steiner_optimum(&t, NodeId(1), &[NodeId(1)], &w), Some(0.0));
    }
}
