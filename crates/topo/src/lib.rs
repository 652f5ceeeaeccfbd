//! # flexsched-topo — network topology substrate
//!
//! Graph model and algorithms for the flexsched reproduction of the SIGCOMM'24
//! poster *"Flexible Scheduling of Network and Computing Resources for
//! Distributed AI Tasks"*.
//!
//! The crate provides:
//!
//! * typed identifiers ([`NodeId`], [`LinkId`]) and the physical element model
//!   ([`Node`], [`NodeKind`], [`Link`]),
//! * an undirected multigraph [`Topology`] with per-direction capacity
//!   semantics left to higher layers,
//! * canonical topology builders used throughout the evaluation
//!   ([`builders`]): linear chains, rings, stars, NSFNET-14, the metro
//!   aggregation network that mirrors the paper's testbed, spine-leaf fabrics
//!   and seeded random graphs,
//! * graph algorithms ([`algo`]): Dijkstra, Yen's k-shortest paths, a
//!   union-find, the terminal core and Mehlhorn's MST-based Steiner-tree
//!   heuristic that powers the paper's flexible scheduler.
//!
//! Everything is deterministic: random builders take explicit seeds and all
//! tie-breaks are by ascending identifier.

pub mod algo;
pub mod builders;
pub mod error;
pub mod graph;
pub mod ids;
pub mod link;
pub mod node;
pub mod path;

pub use error::TopoError;
pub use graph::Topology;
pub use ids::{LinkId, NodeId};
pub use link::{Direction, Link};
pub use node::{Node, NodeKind};
pub use path::Path;

/// Convenience result alias for topology operations.
pub type Result<T> = std::result::Result<T, TopoError>;
