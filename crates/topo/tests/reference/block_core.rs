//! The terminal core by brute force: the block reduction straight from its
//! definition, with no block-cut forest and nothing cached.

use flexsched_topo::{NodeId, Result, Topology};

/// The terminal core of `root` ∪ `terminals` as a node mask: every node
/// starts in, then each pass drops every component of the kept fabric that
/// holds no pin, and for every kept node `c` every component of the kept
/// fabric less `c` that holds no pin, until a pass drops nothing. A pass is
/// one breadth-first search from the pins per node: O(nodes · (nodes +
/// links)).
///
/// # Errors
/// `TopoError::UnknownNode` if the root or a terminal is not a node of
/// `topo`.
pub fn block_core(topo: &Topology, root: NodeId, terminals: &[NodeId]) -> Result<Vec<bool>> {
    topo.node(root)?;
    for t in terminals {
        topo.node(*t)?;
    }
    let n = topo.node_count();
    let mut pinned = vec![false; n];
    for p in std::iter::once(root).chain(terminals.iter().copied()) {
        pinned[p.index()] = true;
    }
    let mut kept = vec![true; n];
    loop {
        let mut dropped = false;
        for cut in std::iter::once(None).chain(topo.node_ids().map(Some)) {
            if cut.is_some_and(|c| !kept[c.index()]) {
                continue;
            }
            let open = |v: NodeId| kept[v.index()] && Some(v) != cut;
            let mut reached = vec![false; n];
            let mut queue: Vec<NodeId> = topo
                .node_ids()
                .filter(|v| pinned[v.index()] && open(*v))
                .collect();
            for v in &queue {
                reached[v.index()] = true;
            }
            while let Some(v) = queue.pop() {
                for &(u, _) in topo.neighbors(v)? {
                    if open(u) && !reached[u.index()] {
                        reached[u.index()] = true;
                        queue.push(u);
                    }
                }
            }
            let cut_off: Vec<NodeId> = topo
                .node_ids()
                .filter(|v| open(*v) && !reached[v.index()])
                .collect();
            dropped |= !cut_off.is_empty();
            for v in cut_off {
                kept[v.index()] = false;
            }
        }
        if !dropped {
            return Ok(kept);
        }
    }
}
