//! Graph algorithms over [`crate::Topology`].
//!
//! All shortest-path style algorithms are generic over a *link weight
//! function* `Fn(&Link) -> f64`. Weights must be non-negative and finite;
//! `f64::INFINITY` marks a link as unusable (it is skipped), which is how the
//! schedulers express "no residual capacity". Tie-breaks are deterministic
//! (ascending link/node id), so equal-seed runs produce identical schedules.

pub mod closure;
pub mod dijkstra;
pub mod mehlhorn;
pub mod scratch;
pub mod steiner;
pub mod terminal_core;
pub(crate) mod traversal;
pub(crate) mod unionfind;
pub(crate) mod yen;

pub use closure::ClosureStats;
pub use dijkstra::{shortest_path, shortest_path_tree, ShortestPathTree};
pub use mehlhorn::{
    sparse_closure_mst_weight, steiner_tree, steiner_tree_in, steiner_tree_with_weights_in,
};
pub use scratch::{DijkstraScratch, ScratchPool, SearchWork, TreeBufs};
pub use steiner::{ChainWalk, SteinerTree};
pub use terminal_core::{terminal_core, CoreBufs, TerminalCore};
pub use traversal::{bridges, reaches_all};
pub use unionfind::UnionFind;
pub use yen::k_shortest_paths;

use crate::link::Link;

/// Link weight equal to the hop count metric (every usable link costs 1).
pub fn hop_weight(_l: &Link) -> f64 {
    1.0
}

/// Link weight equal to the physical span length in km.
pub fn length_weight(l: &Link) -> f64 {
    l.length_km
}

/// Link weight equal to the propagation latency in nanoseconds.
pub fn latency_weight(l: &Link) -> f64 {
    l.propagation_ns() as f64
}
