//! The observable world of a scheduling decision: an immutable snapshot.
//!
//! [`NetworkSnapshot`] is stage one of the **snapshot → propose → commit**
//! pipeline. It bundles a frozen copy of the IP-layer [`NetworkState`]
//! (read through the state's own methods, mutation stamp included) and an
//! optional frozen optical view ([`flexsched_optical::OpticalSnapshot`])
//! into one `Send + Sync` value. Schedulers are pure functions of the
//! snapshot and a task: they may read everything here and mutate nothing —
//! all state changes flow through the orchestrator's committer, which
//! validates each proposal's schedule against *live* state.

use flexsched_optical::{OpticalSnapshot, OpticalState};
use flexsched_simnet::NetworkState;
use flexsched_topo::Topology;
use std::sync::Arc;

/// Everything a scheduling policy may observe, frozen at one instant.
#[derive(Debug, Clone)]
pub struct NetworkSnapshot {
    /// A copy of the IP-layer state (residuals, down set, mutation stamp).
    net: NetworkState,
    /// Frozen optical-layer occupancy, when the scenario models wavelengths.
    /// `Arc`-shared: one freeze can serve several IP-layer views of the same
    /// instant (rescheduling's live and without-us worlds).
    optical: Option<Arc<OpticalSnapshot>>,
}

impl NetworkSnapshot {
    /// Freeze a copy of `state`, no optical view.
    pub fn capture(state: &NetworkState) -> Self {
        Self::from_parts(state.clone(), None)
    }

    /// Bundle an IP-layer copy and a frozen optical view. The optical view
    /// is taken by handle, so one freeze can serve several snapshots;
    /// callers that keep their own [`NetworkState`] buffer (refilled with
    /// [`NetworkState::copy_from`]) get it back from
    /// [`into_parts`](NetworkSnapshot::into_parts).
    pub fn from_parts(net: NetworkState, optical: Option<Arc<OpticalSnapshot>>) -> Self {
        NetworkSnapshot { net, optical }
    }

    /// Take the snapshot apart into its frozen views.
    pub fn into_parts(self) -> (NetworkState, Option<Arc<OpticalSnapshot>>) {
        (self.net, self.optical)
    }

    /// Attach a frozen optical-layer view.
    ///
    /// Capture both layers under one database read lock when the scenario
    /// is threaded, so the two views are mutually consistent.
    pub fn with_optical(mut self, optical: &OpticalState) -> Self {
        self.optical = Some(Arc::new(optical.snapshot()));
        self
    }

    /// The frozen IP-layer view.
    #[inline]
    pub(crate) fn net(&self) -> &NetworkState {
        &self.net
    }

    /// The frozen optical-layer view, if one was attached.
    #[inline]
    pub(crate) fn optical(&self) -> Option<&OpticalSnapshot> {
        self.optical.as_deref()
    }

    /// The underlying topology.
    #[inline]
    pub(crate) fn topo(&self) -> &Topology {
        self.net.topo()
    }

    /// Global IP-layer mutation stamp this snapshot was taken at.
    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.net.version()
    }

    /// Optical mutation stamp this snapshot was taken at (`None` when no
    /// optical view is attached).
    pub(crate) fn optical_version(&self) -> Option<u64> {
        self.optical().map(OpticalSnapshot::version)
    }
}

// The whole point of the snapshot stage: decisions may fan out across
// threads, so pin the bound here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NetworkSnapshot>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_simnet::DirLink;
    use flexsched_topo::{builders, Direction, LinkId};
    use std::sync::Arc;

    #[test]
    fn builder_methods_set_fields() {
        let topo = Arc::new(builders::linear(3, 1.0, 100.0));
        let state = NetworkState::new(Arc::clone(&topo));
        let optical = OpticalState::new(topo);
        let snap = NetworkSnapshot::capture(&state).with_optical(&optical);
        assert!(snap.optical().is_some());
        assert_eq!(snap.optical_version(), Some(optical.version()));
    }

    #[test]
    fn parts_round_trip_and_share_one_optical_freeze() {
        let topo = Arc::new(builders::linear(3, 1.0, 100.0));
        let state = NetworkState::new(Arc::clone(&topo));
        let view = Arc::new(OpticalState::new(topo).snapshot());
        let a = NetworkSnapshot::from_parts(state.clone(), Some(Arc::clone(&view)));
        let b = NetworkSnapshot::from_parts(state.clone(), Some(Arc::clone(&view)));
        assert!(std::ptr::eq(a.optical().unwrap(), b.optical().unwrap()));
        let (net, optical) = a.into_parts();
        assert_eq!(net.version(), state.version());
        assert!(Arc::ptr_eq(&optical.unwrap(), &view));
    }

    #[test]
    fn defaults_are_sane() {
        let topo = Arc::new(builders::linear(3, 1.0, 100.0));
        let state = NetworkState::new(topo);
        let snap = NetworkSnapshot::capture(&state);
        assert!(snap.optical().is_none());
        assert!(snap.optical_version().is_none());
        assert_eq!(snap.version(), state.version());
    }

    /// A capture is a copy: writes to the live state after it — a
    /// reservation, a link going down — do not show through, and the
    /// frozen stamp stays the one it was taken at.
    #[test]
    fn snapshot_freezes_residuals() {
        let mut state = NetworkState::new(Arc::new(builders::linear(3, 1.0, 100.0)));
        let dl = DirLink::new(LinkId(0), Direction::AtoB);
        state.reserve(dl, 40.0).unwrap();
        let snap = NetworkSnapshot::capture(&state);
        state.reserve(dl, 20.0).unwrap();
        state.set_down(LinkId(1), true).unwrap();
        assert_eq!(snap.net().residual_gbps(dl).unwrap(), 60.0);
        assert_eq!(snap.net().residual_min_gbps(LinkId(0)), 60.0);
        assert!(!snap.net().is_down(LinkId(1)));
        assert_eq!(state.residual_gbps(dl).unwrap(), 40.0);
        assert!(snap.version() < state.version());
    }

    #[test]
    fn snapshot_is_shareable_across_threads() {
        let topo = Arc::new(builders::linear(3, 1.0, 100.0));
        let state = NetworkState::new(topo);
        let snap = Arc::new(NetworkSnapshot::capture(&state));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let snap = Arc::clone(&snap);
                std::thread::spawn(move || snap.net().residual_min_gbps(LinkId(0)))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 100.0);
        }
    }
}
