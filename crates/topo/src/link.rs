//! Link model: fiber spans / cables connecting two nodes.
//!
//! Links are undirected at the topology level; traffic and capacity are
//! accounted per [`Direction`] by higher layers (each fiber is in practice a
//! pair of unidirectional strands with identical characteristics).

use crate::ids::{LinkId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Speed of light in fiber: ~5 microseconds per kilometre.
pub(crate) const FIBER_NS_PER_KM: f64 = 5_000.0;

/// One of the two directions over an undirected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Direction {
    /// From endpoint `a` towards endpoint `b`.
    AtoB,
    /// From endpoint `b` towards endpoint `a`.
    BtoA,
}

/// An undirected fiber/cable between two topology nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Dense identifier assigned by the topology.
    pub id: LinkId,
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Physical span length in kilometres (drives propagation delay).
    pub length_km: f64,
    /// Total per-direction capacity in Gbit/s. For WDM fibers this is the
    /// aggregate across all wavelengths; the optical crate refines it into
    /// per-wavelength channels.
    pub capacity_gbps: f64,
    /// Number of WDM wavelengths multiplexed on this fiber. `1` models a
    /// grey (non-WDM) cable such as a server attachment.
    pub wavelengths: u16,
}

impl Link {
    /// Create a link. `id` is normally assigned via [`crate::Topology::add_link`].
    pub(crate) fn new(
        id: LinkId,
        a: NodeId,
        b: NodeId,
        length_km: f64,
        capacity_gbps: f64,
    ) -> Self {
        Link {
            id,
            a,
            b,
            length_km,
            capacity_gbps,
            wavelengths: 1,
        }
    }

    /// Propagation delay for this span in nanoseconds.
    #[inline]
    pub fn propagation_ns(&self) -> u64 {
        (self.length_km * FIBER_NS_PER_KM).round() as u64
    }

    /// Per-wavelength channel capacity in Gbit/s.
    #[inline]
    pub fn channel_gbps(&self) -> f64 {
        self.capacity_gbps / f64::from(self.wavelengths.max(1))
    }

    /// The direction of travel when leaving node `from` over this link, or
    /// `None` if `from` is not an endpoint.
    #[inline]
    pub fn direction_from(&self, from: NodeId) -> Option<Direction> {
        if from == self.a {
            Some(Direction::AtoB)
        } else if from == self.b {
            Some(Direction::BtoA)
        } else {
            None
        }
    }

    /// Whether this link connects `x` and `y` (in either order).
    #[inline]
    pub(crate) fn connects(&self, x: NodeId, y: NodeId) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}<->{} {:.1}km {:.0}G]",
            self.id, self.a, self.b, self.length_km, self.capacity_gbps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l() -> Link {
        let mut link = Link::new(LinkId(0), NodeId(1), NodeId(2), 10.0, 400.0);
        link.wavelengths = 4;
        link
    }

    #[test]
    fn propagation_uses_fiber_speed() {
        assert_eq!(l().propagation_ns(), 50_000); // 10 km * 5 us/km
    }

    #[test]
    fn channel_capacity_divides_by_wavelengths() {
        assert!((l().channel_gbps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn channel_capacity_handles_zero_wavelengths() {
        let mut link = l();
        link.wavelengths = 0;
        assert!((link.channel_gbps() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn direction_from_endpoints() {
        assert_eq!(l().direction_from(NodeId(1)), Some(Direction::AtoB));
        assert_eq!(l().direction_from(NodeId(2)), Some(Direction::BtoA));
        assert_eq!(l().direction_from(NodeId(3)), None);
    }

    #[test]
    fn connects_is_order_insensitive() {
        assert!(l().connects(NodeId(1), NodeId(2)));
        assert!(l().connects(NodeId(2), NodeId(1)));
        assert!(!l().connects(NodeId(1), NodeId(3)));
    }
}
