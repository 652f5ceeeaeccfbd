//! Frozen, shareable views of the optical-layer occupancy.
//!
//! An [`OpticalSnapshot`] freezes the per-link wavelength busy bitmasks
//! (occupied ∪ impaired) and the grooming headroom — per link the largest
//! residual among the lightpaths crossing it, per lightpath its endpoints
//! and residual — at one instant, so schedulers evaluate wavelength
//! feasibility and grooming headroom against a consistent, `Send + Sync`
//! view.

use crate::rwa::{any_free, count_free, grid_of, path_free_mask, OpticalState};
use crate::Result;
use flexsched_topo::{LinkId, NodeId, Path, Topology};
use std::sync::Arc;

/// Headroom where no lightpath offers any: below every demand, so
/// `NONE + 1e-9 >= gbps` is false like `any` over no lightpaths.
const NONE: f64 = f64::NEG_INFINITY;

/// An immutable point-in-time copy of wavelength occupancy and lightpath
/// grooming headroom.
///
/// Headroom across a link is kept as a maximum, not as a list of
/// lightpaths: every reader asks whether *some* lightpath still fits a
/// demand, and `max(residual) + 1e-9 >= gbps` ⇔ `any(residual + 1e-9 >=
/// gbps)` (adding a constant and rounding are both monotone).
#[derive(Debug, Clone)]
pub struct OpticalSnapshot {
    topo: Arc<Topology>,
    /// Link `l`'s busy words are `word_offsets[l]..word_offsets[l + 1]` of
    /// `busy`; the handle is the state's own.
    word_offsets: Arc<[usize]>,
    /// Occupancy ∪ impairment bitmask words at capture time, all links
    /// back to back.
    busy: Vec<u64>,
    /// `across[l]` = largest residual among the lightpaths crossing `l`.
    across: Vec<f64>,
    /// `(source, destination, residual)` of every lightpath, id order. Not
    /// grouped by endpoints: only the fixed scheduler's fallback asks
    /// [`groomable_between`](OpticalSnapshot::groomable_between), and
    /// grouping at capture (a search per lightpath) cost more than the
    /// rest of the freeze.
    between: Vec<(NodeId, NodeId, f64)>,
    version: u64,
}

impl OpticalSnapshot {
    /// Freeze `state`'s current occupancy: one pass over the spectrum
    /// words and one over the established lightpaths.
    pub(crate) fn capture(state: &OpticalState) -> Self {
        let mut snap = OpticalSnapshot {
            topo: state.topo_arc(),
            word_offsets: Arc::clone(state.raw_parts().word_offsets),
            busy: Vec::new(),
            across: Vec::new(),
            between: Vec::new(),
            version: 0,
        };
        snap.recapture(state);
        snap
    }

    /// Freeze `state` again into this snapshot: the same result as
    /// `capture`, reusing the arrays already allocated. Nothing of the
    /// previous freeze survives, whatever the size of the fabric it was
    /// taken on.
    pub fn recapture(&mut self, state: &OpticalState) {
        let raw = state.raw_parts();
        self.topo = state.topo_arc();
        self.word_offsets = Arc::clone(raw.word_offsets);
        self.busy.clear();
        self.busy
            .extend(raw.occupied.iter().zip(raw.impaired).map(|(o, i)| o | i));
        self.across.clear();
        self.across.resize(self.topo.link_count(), NONE);
        self.between.clear();
        for lp in raw.lightpaths {
            let residual = lp.residual_gbps();
            self.between.push((lp.source(), lp.destination(), residual));
            for l in &lp.path.links {
                let across = &mut self.across[l.index()];
                *across = across.max(residual);
            }
        }
        self.version = state.version();
    }

    /// Global optical mutation stamp at capture time.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Busy words of a known `link`.
    #[inline]
    fn busy_words(&self, link: LinkId) -> impl Iterator<Item = u64> + '_ {
        let words = self.word_offsets[link.index()]..self.word_offsets[link.index() + 1];
        self.busy[words].iter().copied()
    }

    /// Whether any wavelength was free on `link` at capture time.
    pub fn has_free_wavelength(&self, link: LinkId) -> Result<bool> {
        Ok(any_free(grid_of(&self.topo, link)?, self.busy_words(link)))
    }

    /// Number of free wavelengths on `link` at capture time — the
    /// continuity-set headroom the wavelength-aware tree weight reads.
    pub fn free_wavelength_count(&self, link: LinkId) -> Result<u32> {
        Ok(count_free(
            grid_of(&self.topo, link)?,
            self.busy_words(link),
        ))
    }

    /// Free-wavelength continuity mask for `path` (see
    /// [`OpticalState::free_mask_on_path`]); empty for trivial paths.
    pub fn free_mask_on_path(&self, path: &Path) -> Result<Vec<u64>> {
        path_free_mask(&self.topo, path, |l| self.busy_words(l))
    }

    /// Whether some wavelength satisfied the continuity constraint over the
    /// whole of `path` at capture time (true for trivial paths).
    pub fn path_has_free_wavelength(&self, path: &Path) -> Result<bool> {
        if path.links.is_empty() {
            return Ok(true);
        }
        Ok(self.free_mask_on_path(path)?.iter().any(|w| *w != 0))
    }

    /// Whether some lightpath with endpoints `(src, dst)` still had at
    /// least `gbps` of groomable headroom at capture time.
    pub fn groomable_between(&self, src: NodeId, dst: NodeId, gbps: f64) -> bool {
        self.between
            .iter()
            .any(|&(s, d, residual)| s == src && d == dst && residual + 1e-9 >= gbps)
    }

    /// Whether some lightpath crossing `link` still had at least `gbps` of
    /// groomable headroom at capture time.
    pub fn groomable_across(&self, link: LinkId, gbps: f64) -> bool {
        self.across
            .get(link.index())
            .is_some_and(|residual| residual + 1e-9 >= gbps)
    }

    /// Whether `link` could still carry `gbps` optically at capture time
    /// (see [`OpticalState::can_carry`]).
    pub fn can_carry(&self, link: LinkId, gbps: f64) -> bool {
        self.has_free_wavelength(link).unwrap_or(false) || self.groomable_across(link, gbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavelength::WavelengthId;
    use flexsched_topo::{NodeKind, Topology};

    fn wdm_line() -> (Arc<Topology>, Path) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Roadm, "a");
        let b = t.add_node(NodeKind::Roadm, "b");
        let c = t.add_node(NodeKind::Roadm, "c");
        t.add_wdm_link(a, b, 10.0, 400.0, 4).unwrap();
        t.add_wdm_link(b, c, 10.0, 400.0, 4).unwrap();
        let t = Arc::new(t);
        let p = flexsched_topo::algo::shortest_path(&t, a, c, flexsched_topo::algo::hop_weight)
            .unwrap();
        (t, p)
    }

    #[test]
    fn snapshot_freezes_occupancy() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        s.establish(p.clone()).unwrap();
        let snap = s.snapshot();
        s.establish(p.clone()).unwrap();
        // The snapshot still sees 3 free wavelengths per link; live has 2.
        assert_eq!(snap.free_wavelength_count(p.links[0]).unwrap(), 3);
        assert_eq!(s.free_wavelength_count(p.links[0]).unwrap(), 2);
        assert!(snap.has_free_wavelength(p.links[0]).unwrap());
    }

    #[test]
    fn recapture_equals_a_fresh_capture() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let hop1 = Path::new(vec![p.nodes[0], p.nodes[1]], vec![p.links[0]]).unwrap();
        let a = s.establish_on(hop1, WavelengthId(1)).unwrap();
        s.establish(p.clone()).unwrap();
        let mut snap = s.snapshot();
        // Fewer lightpaths, another one's route and headroom changed, an
        // impairment: every array has something to overwrite.
        s.teardown(a).unwrap();
        let b = s.establish(p.clone()).unwrap();
        s.add_groomed(b, 60.0).unwrap();
        s.set_impaired(p.links[1], WavelengthId(3), true).unwrap();
        snap.recapture(&s);
        assert_eq!(format!("{snap:?}"), format!("{:?}", s.snapshot()));
        // ...and growing back.
        s.establish(p.clone()).unwrap();
        snap.recapture(&s);
        assert_eq!(format!("{snap:?}"), format!("{:?}", s.snapshot()));
    }

    #[test]
    fn recapture_across_fabrics_of_different_size() {
        // A snapshot buffer handed from a small fabric to a larger one and
        // back must not keep a word, a stamp or a headroom of the other.
        let (small, p) = wdm_line();
        let big = Arc::new(flexsched_topo::builders::metro(
            &flexsched_topo::builders::MetroParams::default(),
        ));
        let mut on_small = OpticalState::new(small);
        let id = on_small.establish(p.clone()).unwrap();
        on_small.add_groomed(id, 60.0).unwrap();
        let mut on_big = OpticalState::new(Arc::clone(&big));
        let servers = big.servers();
        let route = flexsched_topo::algo::shortest_path(
            &big,
            servers[0],
            servers[servers.len() - 1],
            flexsched_topo::algo::latency_weight,
        )
        .unwrap();
        on_big.establish_route(&route).unwrap();

        let mut snap = on_big.snapshot();
        for state in [&on_small, &on_big, &on_small] {
            snap.recapture(state);
            assert_eq!(format!("{snap:?}"), format!("{:?}", state.snapshot()));
        }
        assert!(
            snap.has_free_wavelength(LinkId(2)).is_err(),
            "the line has two links"
        );
        assert!(!snap.groomable_across(LinkId(2), 0.0));
    }

    #[test]
    fn continuity_mask_matches_live_state() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(Arc::clone(&t));
        let hop1 = Path::new(vec![p.nodes[0], p.nodes[1]], vec![p.links[0]]).unwrap();
        s.establish_on(hop1, WavelengthId(0)).unwrap();
        let snap = s.snapshot();
        assert_eq!(
            snap.free_mask_on_path(&p).unwrap(),
            s.free_mask_on_path(&p).unwrap()
        );
        assert!(snap.path_has_free_wavelength(&p).unwrap());
    }

    #[test]
    fn lightpath_views_carry_grooming_headroom() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish(p.clone()).unwrap();
        s.add_groomed(id, 60.0).unwrap();
        let snap = s.snapshot();
        assert!(snap.groomable_between(p.source(), p.destination(), 40.0));
        assert!(!snap.groomable_between(p.source(), p.destination(), 50.0));
        assert!(!snap.groomable_between(p.destination(), p.source(), 1.0));
        assert!(snap.groomable_across(p.links[1], 40.0));
        assert!(!snap.groomable_across(LinkId(99), 1.0));
    }

    #[test]
    fn versions_track_mutations() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let before = s.snapshot();
        let id = s.establish(p.clone()).unwrap();
        assert!(s.version() > before.version());
        let mid = s.version();
        s.teardown(id).unwrap();
        assert!(s.version() > mid);
    }

    #[test]
    fn groomable_across_matches_snapshot_view() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish(p.clone()).unwrap();
        s.add_groomed(id, 60.0).unwrap();
        let snap = s.snapshot();
        for l in &p.links {
            assert_eq!(
                s.groomable_across(*l, 40.0),
                snap.groomable_across(*l, 40.0)
            );
            assert_eq!(
                s.groomable_across(*l, 50.0),
                snap.groomable_across(*l, 50.0)
            );
        }
        assert!(!s.groomable_across(LinkId(99), 1.0));
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OpticalSnapshot>();
    }

    #[test]
    fn impairment_shows_as_busy() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        for w in 0..4 {
            s.set_impaired(p.links[0], WavelengthId(w), true).unwrap();
        }
        let snap = s.snapshot();
        assert!(!snap.has_free_wavelength(p.links[0]).unwrap());
        assert_eq!(snap.free_wavelength_count(p.links[0]).unwrap(), 0);
        assert!(snap.has_free_wavelength(p.links[1]).unwrap());
        assert!(!snap.path_has_free_wavelength(&p).unwrap());
    }

    #[test]
    fn unknown_links_error() {
        let (t, _) = wdm_line();
        let s = OpticalState::new(t);
        let snap = s.snapshot();
        assert!(snap.free_wavelength_count(LinkId(9)).is_err());
        assert!(snap.has_free_wavelength(LinkId(9)).is_err());
    }
}
