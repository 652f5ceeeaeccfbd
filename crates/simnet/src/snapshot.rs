//! Frozen, shareable views of the IP-layer link state.
//!
//! A [`NetSnapshot`] is the first stage of the snapshot → propose → commit
//! scheduling pipeline: a cheap, immutable copy of every per-direction
//! residual, the down set and the mutation stamp of a [`NetworkState`] at
//! one instant. It is `Send + Sync`: plain arrays plus an `Arc`-shared
//! topology.

use crate::state::{DirLink, NetworkState};
use crate::{Result, SimError};
use flexsched_topo::{LinkId, Topology};
use std::sync::Arc;

fn dir_index(d: flexsched_topo::Direction) -> usize {
    match d {
        flexsched_topo::Direction::AtoB => 0,
        flexsched_topo::Direction::BtoA => 1,
    }
}

/// An immutable point-in-time copy of the network's link loads.
///
/// Carries the reads scheduling policies make of [`NetworkState`]
/// (`residual_gbps`, `is_down`, and `residual_min_gbps` from the state's
/// per-link cache), so a policy is a pure function of snapshot + task.
#[derive(Debug, Clone)]
pub struct NetSnapshot {
    topo: Arc<Topology>,
    /// `residual[link][dir]`, Gbit/s; zero when the link was down.
    residual: Vec<[f64; 2]>,
    /// Min-direction residual per link (the schedulers' hottest query).
    residual_min: Vec<f64>,
    down: Vec<bool>,
    /// Global mutation stamp at capture time.
    version: u64,
}

impl NetSnapshot {
    /// Freeze `state`'s current loads. O(link count) copies, no allocation
    /// beyond the flat arrays.
    pub(crate) fn capture(state: &NetworkState) -> Self {
        let mut snap = NetSnapshot {
            topo: state.topo_arc(),
            residual: Vec::new(),
            residual_min: Vec::new(),
            down: Vec::new(),
            version: 0,
        };
        snap.recapture(state);
        snap
    }

    /// Freeze `state` again into this snapshot's arrays: the same result
    /// as `capture`, without allocating once the arrays have the fabric's
    /// size.
    pub fn recapture(&mut self, state: &NetworkState) {
        let (usage, down, residual_min) = state.raw_parts();
        self.topo = state.topo_arc();
        self.residual.clear();
        self.residual.resize(usage.len(), [0.0f64; 2]);
        for (i, slot) in self.residual.iter_mut().enumerate() {
            if down[i] {
                continue;
            }
            let cap = self
                .topo
                .link(LinkId(i as u32))
                .map(|l| l.capacity_gbps)
                .unwrap_or(0.0);
            slot[0] = (cap - usage[i][0].occupied_gbps()).max(0.0);
            slot[1] = (cap - usage[i][1].occupied_gbps()).max(0.0);
        }
        self.residual_min.clear();
        self.residual_min.extend_from_slice(residual_min);
        self.down.clear();
        self.down.extend_from_slice(down);
        self.version = state.version();
    }

    /// The underlying topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Global mutation stamp of the state this snapshot froze.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the link was down at capture time.
    pub fn is_down(&self, link: LinkId) -> bool {
        self.down.get(link.index()).copied().unwrap_or(false)
    }

    /// Residual capacity in one direction at capture time; zero when down.
    pub fn residual_gbps(&self, dl: DirLink) -> Result<f64> {
        self.residual
            .get(dl.link.index())
            .map(|r| r[dir_index(dl.dir)])
            .ok_or(SimError::Topo(flexsched_topo::TopoError::UnknownLink(
                dl.link,
            )))
    }

    /// Min-direction residual at capture time (zero for unknown links).
    #[inline]
    pub fn residual_min_gbps(&self, link: LinkId) -> f64 {
        self.residual_min.get(link.index()).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::{builders, Direction};

    fn dl(l: u32) -> DirLink {
        DirLink::new(LinkId(l), Direction::AtoB)
    }

    #[test]
    fn snapshot_freezes_residuals() {
        let mut s = NetworkState::new(Arc::new(builders::linear(3, 1.0, 100.0)));
        s.reserve(dl(0), 40.0).unwrap();
        let snap = s.snapshot();
        // Later mutations do not show through.
        s.reserve(dl(0), 20.0).unwrap();
        assert_eq!(snap.residual_gbps(dl(0)).unwrap(), 60.0);
        assert_eq!(snap.residual_min_gbps(LinkId(0)), 60.0);
        assert_eq!(s.residual_gbps(dl(0)).unwrap(), 40.0);
    }

    #[test]
    fn recapture_equals_a_fresh_capture() {
        let mut s = NetworkState::new(Arc::new(builders::linear(3, 1.0, 100.0)));
        s.reserve(dl(0), 40.0).unwrap();
        let mut snap = s.snapshot();
        s.set_down(LinkId(1), true).unwrap();
        s.reserve(dl(0), 20.0).unwrap();
        snap.recapture(&s);
        assert_eq!(format!("{snap:?}"), format!("{:?}", s.snapshot()));
    }

    #[test]
    fn snapshot_records_versions() {
        let mut s = NetworkState::new(Arc::new(builders::linear(3, 1.0, 100.0)));
        let before = s.snapshot();
        assert_eq!(before.version(), s.version());
        s.reserve(dl(1), 1.0).unwrap();
        assert!(s.version() > before.version());
    }

    #[test]
    fn down_links_freeze_as_zero_residual() {
        let mut s = NetworkState::new(Arc::new(builders::linear(3, 1.0, 100.0)));
        s.set_down(LinkId(0), true).unwrap();
        let snap = s.snapshot();
        assert!(snap.is_down(LinkId(0)));
        assert_eq!(snap.residual_gbps(dl(0)).unwrap(), 0.0);
        assert_eq!(
            snap.residual_gbps(DirLink::new(LinkId(0), Direction::BtoA))
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn unknown_links_error_or_default() {
        let s = NetworkState::new(Arc::new(builders::linear(2, 1.0, 100.0)));
        let snap = s.snapshot();
        assert!(snap.residual_gbps(dl(9)).is_err());
        assert_eq!(snap.residual_min_gbps(LinkId(9)), 0.0);
        assert!(!snap.is_down(LinkId(9)));
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetSnapshot>();
    }

    #[test]
    fn residual_from_matches_live_state() {
        let topo = Arc::new(builders::linear(2, 1.0, 100.0));
        let mut s = NetworkState::new(Arc::clone(&topo));
        s.reserve(DirLink::new(LinkId(0), Direction::AtoB), 25.0)
            .unwrap();
        let snap = s.snapshot();
        for dir in [Direction::AtoB, Direction::BtoA] {
            let dl = DirLink::new(LinkId(0), dir);
            assert_eq!(
                snap.residual_gbps(dl).unwrap(),
                s.residual_gbps(dl).unwrap()
            );
        }
        assert_eq!(snap.residual_gbps(dl(0)).unwrap(), 75.0);
    }
}
