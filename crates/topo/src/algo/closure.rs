//! Steiner solve counters.
//!
//! There is one Steiner construction,
//! [`crate::algo::steiner_tree_with_weights_in`], and every
//! non-trivial call runs both of its passes from scratch over every link
//! its weights leave finite (the whole fabric, or a decision's terminal
//! core when the scheduler prices only that); nothing is kept between
//! solves (README "Decided, with numbers"). This module holds the
//! counter type the repo benchmark's adapter binds.

/// Cumulative Steiner solve counters of a
/// [`ScratchPool`](crate::algo::ScratchPool).
///
/// Only `full_solves` moves. The other three fields name amortised paths
/// that do not exist; they stay, always zero, because
/// `benchmark/src/layers.rs` reads all four and only a `benchmark` PR may
/// edit it (ROADMAP "lock-held leftovers").
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClosureStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub repairs: u64,
    /// Non-trivial solves: each ran the root search and the Voronoi
    /// pass from scratch.
    pub full_solves: u64,
    /// Always zero.
    pub fallbacks: u64,
}
