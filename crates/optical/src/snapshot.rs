//! Frozen, shareable views of the optical-layer occupancy.
//!
//! An [`OpticalSnapshot`] freezes the per-link wavelength busy bitmasks
//! (occupied ∪ impaired) and a compact summary of every established
//! lightpath at one instant. It is `Send + Sync`, so scheduler worker
//! threads can evaluate wavelength feasibility and grooming headroom
//! against a consistent view while the live [`OpticalState`] keeps changing
//! under the orchestrator's lock.

use crate::error::OpticalError;
use crate::rwa::{grid_word_mask, words_for, OpticalState, WORD_BITS};
use crate::wavelength::WavelengthId;
use crate::Result;
use flexsched_topo::{LinkId, NodeId, Path, Topology};
use std::sync::Arc;

/// Compact summary of one established lightpath: everything scheduling
/// feasibility checks need, without the full registry entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LightpathView {
    /// Ingress node.
    pub src: NodeId,
    /// Egress node.
    pub dst: NodeId,
    /// Residual groomable capacity at capture time, Gbit/s.
    pub residual_gbps: f64,
    /// Links the lightpath crosses, in path order.
    pub links: Vec<LinkId>,
}

/// An immutable point-in-time copy of wavelength occupancy and lightpath
/// grooming headroom.
#[derive(Debug, Clone)]
pub struct OpticalSnapshot {
    topo: Arc<Topology>,
    /// `busy[link]` = occupancy ∪ impairment bitmask words at capture time.
    busy: Vec<Vec<u64>>,
    lightpaths: Vec<LightpathView>,
    version: u64,
    /// Per-link spectrum mutation stamps at capture time.
    link_version: Vec<u64>,
}

impl OpticalSnapshot {
    /// Freeze `state`'s current occupancy. O(links × grid/64) word copies
    /// plus one compact summary per established lightpath.
    pub fn capture(state: &OpticalState) -> Self {
        let mut snap = OpticalSnapshot {
            topo: state.topo_arc(),
            busy: Vec::new(),
            lightpaths: Vec::new(),
            version: 0,
            link_version: Vec::new(),
        };
        snap.recapture(state);
        snap
    }

    /// Freeze `state` again into this snapshot: the same result as
    /// [`capture`](OpticalSnapshot::capture), reusing the per-link word
    /// vectors and the per-lightpath link lists already allocated.
    pub fn recapture(&mut self, state: &OpticalState) {
        let (occupied, impaired, lightpaths, link_version) = state.raw_parts();
        self.topo = state.topo_arc();
        self.busy.resize_with(occupied.len(), Vec::new);
        for (busy, (occ, imp)) in self.busy.iter_mut().zip(occupied.iter().zip(impaired)) {
            busy.clear();
            // Exactly one grid's worth: amortised growth would round a
            // fresh one- or two-word vector up to four words per link.
            busy.reserve_exact(occ.len());
            busy.extend(occ.iter().zip(imp).map(|(o, i)| o | i));
        }
        self.lightpaths.truncate(lightpaths.len());
        let mut live = lightpaths.values();
        for (view, lp) in self.lightpaths.iter_mut().zip(&mut live) {
            view.src = lp.source();
            view.dst = lp.destination();
            view.residual_gbps = lp.residual_gbps();
            view.links.clone_from(&lp.path.links);
        }
        self.lightpaths.extend(live.map(|lp| LightpathView {
            src: lp.source(),
            dst: lp.destination(),
            residual_gbps: lp.residual_gbps(),
            links: lp.path.links.clone(),
        }));
        self.version = state.version();
        self.link_version.clear();
        self.link_version.extend_from_slice(link_version);
    }

    /// The underlying topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Global optical mutation stamp at capture time.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Spectrum mutation stamp of `link` at capture time (zero for unknown
    /// links).
    #[inline]
    pub fn link_version(&self, link: LinkId) -> u64 {
        self.link_version.get(link.index()).copied().unwrap_or(0)
    }

    /// Grid size of `link`, or an error for unknown links.
    fn grid_of(&self, link: LinkId) -> Result<u16> {
        Ok(self.topo.link(link)?.wavelengths.max(1))
    }

    /// Whether any wavelength was free on `link` at capture time.
    pub fn has_free_wavelength(&self, link: LinkId) -> Result<bool> {
        let grid = self.grid_of(link)?;
        let busy = &self.busy[link.index()];
        Ok((0..words_for(grid)).any(|i| !busy[i] & grid_word_mask(grid, i) != 0))
    }

    /// Number of free wavelengths on `link` at capture time — the
    /// continuity-set headroom the wavelength-aware tree weight reads.
    pub fn free_wavelength_count(&self, link: LinkId) -> Result<u32> {
        let grid = self.grid_of(link)?;
        let busy = &self.busy[link.index()];
        Ok((0..words_for(grid))
            .map(|i| (!busy[i] & grid_word_mask(grid, i)).count_ones())
            .sum())
    }

    /// Free-wavelength continuity mask for `path` (see
    /// [`OpticalState::free_mask_on_path`]); empty for trivial paths.
    pub fn free_mask_on_path(&self, path: &Path) -> Result<Vec<u64>> {
        if path.links.is_empty() {
            return Ok(Vec::new());
        }
        let mut grid = u16::MAX;
        for l in &path.links {
            grid = grid.min(self.grid_of(*l)?);
        }
        let words = words_for(grid);
        let mut mask: Vec<u64> = (0..words).map(|i| grid_word_mask(grid, i)).collect();
        for l in &path.links {
            let busy = &self.busy[l.index()];
            for (i, m) in mask.iter_mut().enumerate() {
                *m &= !busy[i];
            }
        }
        Ok(mask)
    }

    /// Whether some wavelength satisfied the continuity constraint over the
    /// whole of `path` at capture time (true for trivial paths).
    pub fn path_has_free_wavelength(&self, path: &Path) -> Result<bool> {
        if path.links.is_empty() {
            return Ok(true);
        }
        Ok(self.free_mask_on_path(path)?.iter().any(|w| *w != 0))
    }

    /// Wavelengths free on every hop of `path` at capture time, ascending.
    pub fn free_wavelengths_on_path(&self, path: &Path) -> Result<Vec<WavelengthId>> {
        let mask = self.free_mask_on_path(path)?;
        let mut free = Vec::new();
        for (i, mut word) in mask.into_iter().enumerate() {
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                free.push(WavelengthId((i * WORD_BITS + bit) as u16));
                word &= word - 1;
            }
        }
        Ok(free)
    }

    /// Summaries of every lightpath established at capture time, id order.
    pub fn lightpaths(&self) -> &[LightpathView] {
        &self.lightpaths
    }

    /// Whether some lightpath with endpoints `(src, dst)` still had at
    /// least `gbps` of groomable headroom at capture time.
    pub fn groomable_between(&self, src: NodeId, dst: NodeId, gbps: f64) -> bool {
        self.lightpaths
            .iter()
            .any(|lp| lp.src == src && lp.dst == dst && lp.residual_gbps + 1e-9 >= gbps)
    }

    /// Whether some lightpath crossing `link` still had at least `gbps` of
    /// groomable headroom at capture time.
    pub fn groomable_across(&self, link: LinkId, gbps: f64) -> bool {
        self.lightpaths
            .iter()
            .any(|lp| lp.links.contains(&link) && lp.residual_gbps + 1e-9 >= gbps)
    }

    /// Validate that `link` exists, mirroring the live-state error shape.
    pub fn check(&self, link: LinkId) -> Result<()> {
        if link.index() < self.busy.len() {
            Ok(())
        } else {
            Err(OpticalError::Topo(flexsched_topo::TopoError::UnknownLink(
                link,
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwa::WavelengthPolicy;
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
        s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        let snap = s.snapshot();
        s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
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
        s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        let mut snap = s.snapshot();
        // Fewer lightpaths, another one's route and headroom changed, an
        // impairment: every array has something to overwrite.
        s.teardown(a).unwrap();
        let b = s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        s.add_groomed(b, 60.0).unwrap();
        s.set_impaired(p.links[1], WavelengthId(3), true).unwrap();
        snap.recapture(&s);
        assert_eq!(format!("{snap:?}"), format!("{:?}", s.snapshot()));
        // ...and growing back.
        s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        snap.recapture(&s);
        assert_eq!(format!("{snap:?}"), format!("{:?}", s.snapshot()));
    }

    #[test]
    fn continuity_mask_matches_live_state() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(Arc::clone(&t));
        let hop1 = Path::new(vec![p.nodes[0], p.nodes[1]], vec![p.links[0]]).unwrap();
        s.establish_on(hop1, WavelengthId(0)).unwrap();
        let snap = s.snapshot();
        assert_eq!(
            snap.free_wavelengths_on_path(&p).unwrap(),
            s.free_wavelengths_on_path(&p).unwrap()
        );
        assert!(snap.path_has_free_wavelength(&p).unwrap());
    }

    #[test]
    fn lightpath_views_carry_grooming_headroom() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        s.add_groomed(id, 60.0).unwrap();
        let snap = s.snapshot();
        assert_eq!(snap.lightpaths().len(), 1);
        assert!(snap.groomable_between(p.source(), p.destination(), 40.0));
        assert!(!snap.groomable_between(p.source(), p.destination(), 50.0));
        assert!(snap.groomable_across(p.links[1], 40.0));
        assert!(!snap.groomable_across(LinkId(99), 1.0));
    }

    #[test]
    fn versions_track_mutations() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let before = s.snapshot();
        let id = s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
        assert!(s.version() > before.version());
        let mid = s.version();
        s.teardown(id).unwrap();
        assert!(s.version() > mid);
    }

    #[test]
    fn per_link_stamps_move_only_for_touched_fibers() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let before = s.snapshot();
        // Establish on the first hop only: the second fiber stays pristine.
        let hop1 = Path::new(vec![p.nodes[0], p.nodes[1]], vec![p.links[0]]).unwrap();
        let id = s.establish_on(hop1, WavelengthId(0)).unwrap();
        assert!(s.link_version(p.links[0]) > before.link_version(p.links[0]));
        assert_eq!(s.link_version(p.links[1]), before.link_version(p.links[1]));
        // Grooming changes the headroom of every crossed fiber.
        let mid = s.link_version(p.links[0]);
        s.add_groomed(id, 10.0).unwrap();
        assert!(s.link_version(p.links[0]) > mid);
        assert_eq!(s.link_version(p.links[1]), before.link_version(p.links[1]));
    }

    #[test]
    fn groomable_across_matches_snapshot_view() {
        let (t, p) = wdm_line();
        let mut s = OpticalState::new(t);
        let id = s.establish(p.clone(), WavelengthPolicy::FirstFit).unwrap();
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
        assert!(snap.check(LinkId(9)).is_err());
        assert!(snap.has_free_wavelength(LinkId(9)).is_err());
    }
}
