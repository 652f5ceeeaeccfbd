//! Reference oracles the topology proptests compare the library against.
//! Test-only: nothing outside `tests/` calls them.
//!
//! * [`bellman_ford`] for Dijkstra;
//! * [`kruskal_mst`] for spanning-tree checks;
//! * [`steiner_optimum`] (Dreyfus–Wagner) for the Steiner heuristic's bound;
//! * [`block_core`] (the block reduction by brute force) for the cached
//!   terminal core;
//! * [`peel_core`], the degree-1 reduction — one O(nodes) peel of the
//!   whole fabric per call, into node-sized `TreeBufs` masks — whose core
//!   must contain the block core.

mod bellman_ford;
mod block_core;
mod dreyfus_wagner;
mod mst;

pub use bellman_ford::bellman_ford;
pub use block_core::block_core;
pub use dreyfus_wagner::steiner_optimum;
pub use mst::kruskal_mst;

use flexsched_topo::algo::TreeBufs;
use flexsched_topo::{NodeId, Result, Topology};

/// Mark the degree-1 core of `root` ∪ `terminals` in `bufs.mask`: what is
/// left after repeatedly peeling every degree-1 node that is neither the
/// root nor a terminal. Degree counts parallel links, so a node tied to
/// the rest by two parallel links stays. Returns the number of core nodes.
///
/// On return, for every node `n` of `topo`, `bufs.mask[n]` says whether
/// `n` is in the core and `bufs.counts[n]` is its degree inside the core
/// (0 for peeled nodes); `bufs.keep` marks the root and terminals and
/// `bufs.queue` is left empty. A link lies in the core iff both its
/// endpoints do. Nothing is cached on `topo`: the work is O(nodes) plus
/// the adjacency of the peeled nodes, on the buffers' existing capacity.
///
/// # Errors
/// `TopoError::UnknownNode` if the root or a terminal is not a node of
/// `topo`.
pub fn peel_core(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    bufs: &mut TreeBufs,
) -> Result<usize> {
    topo.node(root)?;
    for t in terminals {
        topo.node(*t)?;
    }
    let n = topo.node_count();
    let TreeBufs {
        mask: kept,
        counts: degree,
        keep: pinned,
        queue,
        ..
    } = bufs;
    pinned.clear();
    pinned.resize(n, false);
    pinned[root.index()] = true;
    for t in terminals {
        pinned[t.index()] = true;
    }
    kept.clear();
    kept.resize(n, true);
    degree.clear();
    queue.clear();
    for v in topo.node_ids() {
        let d = topo.neighbors(v)?.len() as u32;
        degree.push(d);
        if d == 1 && !pinned[v.index()] {
            queue.push(v);
        }
    }
    // A node is queued once: either it starts at degree 1, or its degree
    // falls from 2 to 1. Its last neighbour may be peeled before it pops,
    // leaving it isolated; it goes all the same.
    let mut core = n;
    while let Some(v) = queue.pop() {
        kept[v.index()] = false;
        degree[v.index()] = 0;
        core -= 1;
        for &(u, _) in topo.neighbors(v)? {
            if kept[u.index()] {
                degree[u.index()] -= 1;
                if degree[u.index()] == 1 && !pinned[u.index()] {
                    queue.push(u);
                }
            }
        }
    }
    Ok(core)
}
