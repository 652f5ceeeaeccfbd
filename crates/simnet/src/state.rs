//! Network state: per-direction link reservations, background load, faults.
//!
//! This is the data the paper's orchestrator "reports to the database": for
//! every link and direction, how much capacity is reserved by scheduled AI
//! tasks, how much is occupied by live background traffic, and whether the
//! link is up. Schedulers read it to derive link weights; the simulator
//! mutates it as flows come and go.

use crate::error::SimError;
use crate::Result;
use flexsched_topo::{Direction, LinkId, Topology};
use std::sync::Arc;

/// A directed view of an undirected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirLink {
    /// The underlying undirected link.
    pub link: LinkId,
    /// Travel direction.
    pub dir: Direction,
}

impl DirLink {
    /// Construct a directed link view.
    pub fn new(link: LinkId, dir: Direction) -> Self {
        DirLink { link, dir }
    }
}

/// Usage counters for one direction of one link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkUsage {
    /// Bandwidth reserved by scheduled AI tasks, Gbit/s.
    pub reserved_gbps: f64,
    /// Bandwidth occupied by background (live) traffic, Gbit/s.
    pub background_gbps: f64,
}

impl LinkUsage {
    /// Total occupied bandwidth.
    #[inline]
    pub fn occupied_gbps(&self) -> f64 {
        self.reserved_gbps + self.background_gbps
    }
}

/// Mutable network condition state over an immutable topology.
#[derive(Debug, Clone)]
pub struct NetworkState {
    topo: Arc<Topology>,
    /// usage[link][dir as usize]
    usage: Vec<[LinkUsage; 2]>,
    down: Vec<bool>,
    /// Min-direction residual per link, refreshed whenever a mutation
    /// dirties that link (reserve/release/background/up-down). Schedulers
    /// read it ([`residual_min_gbps`](NetworkState::residual_min_gbps))
    /// once per auxiliary-graph edge visit and once per tree edge when
    /// rating feasibility, so it must be a plain array load rather than a
    /// both-directions recomputation.
    residual_min: Vec<f64>,
    /// Global mutation stamp: increments on every state change.
    version: u64,
}

fn dir_index(d: Direction) -> usize {
    match d {
        Direction::AtoB => 0,
        Direction::BtoA => 1,
    }
}

impl NetworkState {
    /// Fresh state: nothing reserved, nothing down.
    pub fn new(topo: Arc<Topology>) -> Self {
        let n = topo.link_count();
        let residual_min = topo
            .links()
            .iter()
            .map(|l| l.capacity_gbps.max(0.0))
            .collect();
        NetworkState {
            topo,
            usage: vec![[LinkUsage::default(); 2]; n],
            down: vec![false; n],
            residual_min,
            version: 0,
        }
    }

    /// Overwrite `self` with `other` — usage, down set, cached residuals and
    /// the mutation stamp — reusing `self`'s allocations. Equivalent to
    /// `*self = other.clone()`; the schedulers' frozen views (the admit
    /// path's snapshot, rescheduling's proposal-and-pricing world) refill
    /// one long-lived buffer per decision this way instead of cloning.
    pub fn copy_from(&mut self, other: &NetworkState) {
        self.topo.clone_from(&other.topo);
        self.usage.clone_from(&other.usage);
        self.down.clone_from(&other.down);
        self.residual_min.clone_from(&other.residual_min);
        self.version = other.version;
    }

    /// Recompute the cached min-direction residual after `link` changed, and
    /// stamp the mutation into the global version counter (every mutating
    /// entry point funnels through here).
    fn refresh_residual_min(&mut self, link: LinkId) {
        let i = link.index();
        self.version += 1;
        self.residual_min[i] = if self.down[i] {
            0.0
        } else {
            let cap = self.topo.link(link).map(|l| l.capacity_gbps).unwrap_or(0.0);
            let a = (cap - self.usage[i][0].occupied_gbps()).max(0.0);
            let b = (cap - self.usage[i][1].occupied_gbps()).max(0.0);
            a.min(b)
        };
    }

    /// The underlying topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Shared handle to the topology.
    pub fn topo_arc(&self) -> Arc<Topology> {
        Arc::clone(&self.topo)
    }

    /// Usage counters for one direction of a link.
    pub fn usage(&self, dl: DirLink) -> Result<LinkUsage> {
        self.check(dl.link)?;
        Ok(self.usage[dl.link.index()][dir_index(dl.dir)])
    }

    /// Whether the link is down.
    pub fn is_down(&self, link: LinkId) -> bool {
        self.down.get(link.index()).copied().unwrap_or(false)
    }

    /// Mark a link down (its residual capacity becomes zero in both
    /// directions; existing reservations are retained so the orchestrator can
    /// see which tasks are affected).
    pub fn set_down(&mut self, link: LinkId, down: bool) -> Result<()> {
        self.check(link)?;
        self.down[link.index()] = down;
        self.refresh_residual_min(link);
        Ok(())
    }

    /// Residual (unreserved, non-background) capacity in Gbit/s for one
    /// direction. Zero when the link is down.
    pub fn residual_gbps(&self, dl: DirLink) -> Result<f64> {
        self.check(dl.link)?;
        if self.is_down(dl.link) {
            return Ok(0.0);
        }
        let cap = self.topo.link(dl.link)?.capacity_gbps;
        let used = self.usage[dl.link.index()][dir_index(dl.dir)].occupied_gbps();
        Ok((cap - used).max(0.0))
    }

    /// Residual capacity of `link`'s worse direction, Gbit/s: zero when
    /// the link is down or unknown. One load from the per-link cache.
    #[inline]
    pub fn residual_min_gbps(&self, link: LinkId) -> f64 {
        self.residual_min.get(link.index()).copied().unwrap_or(0.0)
    }

    /// Utilization (occupied / capacity) in `[0, 1]` for one direction;
    /// reports `1.0` when down.
    pub(crate) fn utilization(&self, dl: DirLink) -> Result<f64> {
        self.check(dl.link)?;
        if self.is_down(dl.link) {
            return Ok(1.0);
        }
        let cap = self.topo.link(dl.link)?.capacity_gbps;
        if cap <= 0.0 {
            return Ok(1.0);
        }
        let used = self.usage[dl.link.index()][dir_index(dl.dir)].occupied_gbps();
        Ok((used / cap).clamp(0.0, 1.0))
    }

    fn check(&self, l: LinkId) -> Result<()> {
        if l.index() < self.usage.len() {
            Ok(())
        } else {
            Err(SimError::Topo(flexsched_topo::TopoError::UnknownLink(l)))
        }
    }

    /// Reserve `gbps` of task bandwidth on one directed link.
    ///
    /// # Errors
    /// [`SimError::LinkDown`] or [`SimError::InsufficientCapacity`].
    pub fn reserve(&mut self, dl: DirLink, gbps: f64) -> Result<()> {
        self.check(dl.link)?;
        if self.is_down(dl.link) {
            return Err(SimError::LinkDown(dl.link));
        }
        let avail = self.residual_gbps(dl)?;
        if gbps > avail + 1e-9 {
            return Err(SimError::InsufficientCapacity {
                link: dl.link,
                requested_gbps: gbps,
                available_gbps: avail,
            });
        }
        self.usage[dl.link.index()][dir_index(dl.dir)].reserved_gbps += gbps;
        self.refresh_residual_min(dl.link);
        Ok(())
    }

    /// Release previously reserved task bandwidth on one directed link.
    ///
    /// # Errors
    /// [`SimError::ReleaseUnderflow`] if more is released than reserved.
    pub fn release(&mut self, dl: DirLink, gbps: f64) -> Result<()> {
        self.check(dl.link)?;
        let slot = &mut self.usage[dl.link.index()][dir_index(dl.dir)].reserved_gbps;
        if gbps > *slot + 1e-9 {
            return Err(SimError::ReleaseUnderflow {
                link: dl.link,
                requested_gbps: gbps,
            });
        }
        *slot = (*slot - gbps).max(0.0);
        self.refresh_residual_min(dl.link);
        Ok(())
    }

    /// Add (or with a negative value, remove) background traffic on one
    /// directed link. Background traffic may oversubscribe the link — the
    /// generator injects what it injects; utilization saturates at 1.0.
    pub fn add_background(&mut self, dl: DirLink, gbps: f64) -> Result<()> {
        self.check(dl.link)?;
        let slot = &mut self.usage[dl.link.index()][dir_index(dl.dir)].background_gbps;
        *slot = (*slot + gbps).max(0.0);
        self.refresh_residual_min(dl.link);
        Ok(())
    }

    /// Reserve every `(directed link, Gbit/s)` hop in order, all-or-nothing:
    /// if a hop fails, the hops before it are undone and its error returned.
    /// The undo writes back each touched slot's prior value and the
    /// version stamp, so a failed call leaves the state bit-identical.
    pub fn reserve_all(&mut self, hops: impl IntoIterator<Item = (DirLink, f64)>) -> Result<()> {
        let version = self.version;
        let hops = hops.into_iter();
        let mut undo: Vec<(DirLink, f64)> = Vec::with_capacity(hops.size_hint().0);
        for (dl, gbps) in hops {
            let prior = self
                .usage
                .get(dl.link.index())
                .map_or(0.0, |u| u[dir_index(dl.dir)].reserved_gbps);
            if let Err(e) = self.reserve(dl, gbps) {
                for (dl, prior) in undo.into_iter().rev() {
                    self.usage[dl.link.index()][dir_index(dl.dir)].reserved_gbps = prior;
                    self.refresh_residual_min(dl.link);
                }
                self.version = version;
                return Err(e);
            }
            undo.push((dl, prior));
        }
        Ok(())
    }

    /// Total task-reserved bandwidth over all links and directions, Gbit/s.
    /// This is the paper's Figure-3b "consumed bandwidth" metric.
    pub fn total_reserved_gbps(&self) -> f64 {
        self.usage
            .iter()
            .map(|u| u[0].reserved_gbps + u[1].reserved_gbps)
            .sum()
    }

    /// Total background bandwidth over all links and directions, Gbit/s.
    #[cfg(test)]
    pub(crate) fn total_background_gbps(&self) -> f64 {
        self.usage
            .iter()
            .map(|u| u[0].background_gbps + u[1].background_gbps)
            .sum()
    }

    /// Global mutation stamp: increments on every reserve/release/
    /// background/up-down change anywhere in the network.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::{builders, NodeId, Path};

    /// `gbps` on every hop of `path`, each in its direction of travel.
    fn hops(topo: &Topology, path: &Path, gbps: f64) -> Vec<(DirLink, f64)> {
        let travel = path.nodes.iter().zip(&path.links);
        travel
            .map(|(from, l)| {
                let dir = topo.link(*l).unwrap().direction_from(*from).unwrap();
                (DirLink::new(*l, dir), gbps)
            })
            .collect()
    }

    fn state() -> NetworkState {
        NetworkState::new(Arc::new(builders::linear(3, 1.0, 100.0)))
    }

    fn dl(l: u32) -> DirLink {
        DirLink::new(LinkId(l), Direction::AtoB)
    }

    #[test]
    fn fresh_state_is_idle() {
        let s = state();
        assert_eq!(s.total_reserved_gbps(), 0.0);
        assert_eq!(s.residual_gbps(dl(0)).unwrap(), 100.0);
        assert_eq!(s.utilization(dl(0)).unwrap(), 0.0);
    }

    #[test]
    fn reserve_and_release_round_trip() {
        let mut s = state();
        s.reserve(dl(0), 40.0).unwrap();
        assert_eq!(s.residual_gbps(dl(0)).unwrap(), 60.0);
        assert_eq!(s.total_reserved_gbps(), 40.0);
        s.release(dl(0), 40.0).unwrap();
        assert_eq!(s.residual_gbps(dl(0)).unwrap(), 100.0);
    }

    #[test]
    fn copy_from_equals_clone_including_stamps() {
        let mut src = state();
        src.reserve(dl(0), 40.0).unwrap();
        src.add_background(dl(1), 5.0).unwrap();
        src.set_down(LinkId(1), true).unwrap();
        // A buffer with its own history (and another topology) is fully
        // overwritten.
        let mut buf = NetworkState::new(Arc::new(builders::linear(5, 1.0, 10.0)));
        buf.reserve(dl(2), 1.0).unwrap();
        buf.copy_from(&src);
        assert_eq!(format!("{buf:?}"), format!("{:?}", src.clone()));
        assert_eq!(buf.version(), src.version());
    }

    #[test]
    fn directions_are_independent() {
        let mut s = state();
        s.reserve(DirLink::new(LinkId(0), Direction::AtoB), 80.0)
            .unwrap();
        assert_eq!(
            s.residual_gbps(DirLink::new(LinkId(0), Direction::BtoA))
                .unwrap(),
            100.0
        );
    }

    #[test]
    fn oversubscription_rejected() {
        let mut s = state();
        s.reserve(dl(0), 90.0).unwrap();
        let err = s.reserve(dl(0), 20.0).unwrap_err();
        assert!(matches!(err, SimError::InsufficientCapacity { .. }));
        // State unchanged by the failed attempt.
        assert_eq!(s.residual_gbps(dl(0)).unwrap(), 10.0);
    }

    #[test]
    fn release_underflow_rejected() {
        let mut s = state();
        s.reserve(dl(0), 10.0).unwrap();
        assert!(matches!(
            s.release(dl(0), 20.0),
            Err(SimError::ReleaseUnderflow { .. })
        ));
    }

    #[test]
    fn down_link_has_zero_residual_and_rejects_reservations() {
        let mut s = state();
        s.set_down(LinkId(0), true).unwrap();
        assert_eq!(s.residual_gbps(dl(0)).unwrap(), 0.0);
        assert_eq!(s.utilization(dl(0)).unwrap(), 1.0);
        assert!(matches!(s.reserve(dl(0), 1.0), Err(SimError::LinkDown(_))));
        s.set_down(LinkId(0), false).unwrap();
        s.reserve(dl(0), 1.0).unwrap();
    }

    #[test]
    fn background_traffic_counts_against_residual() {
        let mut s = state();
        s.add_background(dl(0), 30.0).unwrap();
        assert_eq!(s.residual_gbps(dl(0)).unwrap(), 70.0);
        assert!((s.utilization(dl(0)).unwrap() - 0.3).abs() < 1e-9);
        s.add_background(dl(0), -30.0).unwrap();
        assert_eq!(s.residual_gbps(dl(0)).unwrap(), 100.0);
    }

    #[test]
    fn background_may_oversubscribe_but_clamps_metrics() {
        let mut s = state();
        s.add_background(dl(0), 150.0).unwrap();
        assert_eq!(s.residual_gbps(dl(0)).unwrap(), 0.0);
        assert_eq!(s.utilization(dl(0)).unwrap(), 1.0);
    }

    #[test]
    fn reserve_path_is_atomic() {
        let topo = Arc::new(builders::linear(4, 1.0, 100.0));
        let mut s = NetworkState::new(Arc::clone(&topo));
        // Fill the middle link so a path reservation must fail there.
        s.reserve(DirLink::new(LinkId(1), Direction::AtoB), 95.0)
            .unwrap();
        let path = flexsched_topo::algo::shortest_path(
            &topo,
            NodeId(0),
            NodeId(3),
            flexsched_topo::algo::hop_weight,
        )
        .unwrap();
        let before = format!("{s:?}");
        let err = s.reserve_all(hops(&topo, &path, 10.0)).unwrap_err();
        assert!(matches!(err, SimError::InsufficientCapacity { .. }));
        // The first hop is undone, version stamp included.
        assert_eq!(format!("{s:?}"), before);
    }

    #[test]
    fn reserve_path_uses_travel_direction() {
        let topo = Arc::new(builders::linear(3, 1.0, 100.0));
        let mut s = NetworkState::new(Arc::clone(&topo));
        let forward = flexsched_topo::algo::shortest_path(
            &topo,
            NodeId(0),
            NodeId(2),
            flexsched_topo::algo::hop_weight,
        )
        .unwrap();
        let backward = forward.reversed();
        s.reserve_all(hops(&topo, &forward, 60.0)).unwrap();
        // The reverse direction is still free.
        s.reserve_all(hops(&topo, &backward, 60.0)).unwrap();
        assert_eq!(s.total_reserved_gbps(), 240.0);
    }

    #[test]
    fn residual_min_takes_worse_direction() {
        let mut s = state();
        s.reserve(DirLink::new(LinkId(0), Direction::AtoB), 70.0)
            .unwrap();
        assert_eq!(s.residual_min_gbps(LinkId(0)), 30.0);
    }

    #[test]
    fn residual_min_cache_tracks_every_mutation_kind() {
        let mut s = state();
        let l = LinkId(0);
        let recompute = |s: &NetworkState| {
            let a = s.residual_gbps(DirLink::new(l, Direction::AtoB)).unwrap();
            let b = s.residual_gbps(DirLink::new(l, Direction::BtoA)).unwrap();
            a.min(b)
        };
        assert_eq!(s.residual_min_gbps(l), recompute(&s));
        s.reserve(DirLink::new(l, Direction::AtoB), 12.5).unwrap();
        assert_eq!(s.residual_min_gbps(l), recompute(&s));
        s.add_background(DirLink::new(l, Direction::BtoA), 40.0)
            .unwrap();
        assert_eq!(s.residual_min_gbps(l), recompute(&s));
        s.set_down(l, true).unwrap();
        assert_eq!(s.residual_min_gbps(l), 0.0);
        s.set_down(l, false).unwrap();
        assert_eq!(s.residual_min_gbps(l), recompute(&s));
        s.release(DirLink::new(l, Direction::AtoB), 12.5).unwrap();
        assert_eq!(s.residual_min_gbps(l), recompute(&s));
    }

    #[test]
    fn unknown_links_error_or_default() {
        let s = NetworkState::new(Arc::new(builders::linear(2, 1.0, 100.0)));
        assert!(matches!(
            s.residual_gbps(dl(9)),
            Err(SimError::Topo(flexsched_topo::TopoError::UnknownLink(
                LinkId(9)
            )))
        ));
        assert_eq!(s.residual_min_gbps(LinkId(9)), 0.0);
        assert!(!s.is_down(LinkId(9)));
    }
}
