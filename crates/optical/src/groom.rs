//! Traffic grooming: packing sub-wavelength demands onto lightpaths.
//!
//! The testbed's IP routers "groom" AI-task flows onto wavelength circuits.
//! The flexible scheduler's bandwidth saving comes precisely from this: "AI
//! tasks can use some existing paths to transmit model weights". The
//! [`GroomingManager`] reuses an established lightpath when one with the
//! same endpoints has residual capacity, and only lights new wavelengths
//! when necessary; tearing down a demand frees idle lightpaths.
//!
//! Demand ids, like lightpath ids, only grow and are never reused, so a
//! released or never-issued id is refused with
//! [`UnknownAllocation`](crate::OpticalError::UnknownAllocation), and the
//! manager keeps its demands in a window over their ids (see
//! [`GroomingManager`]). [`GroomWork`] counts what its walks and releases
//! ask of the optical state.

use crate::lightpath::LightpathId;
use crate::rwa::{segment_ends, sub_path, OpticalState};
use crate::Result;
use flexsched_topo::{LinkId, NodeId, Path};
use std::collections::{BTreeMap, VecDeque};

/// A groomed demand: one IP-layer flow mapped onto per-segment lightpaths.
#[derive(Debug, Clone, PartialEq)]
pub struct GroomedDemand {
    /// Groomed rate, Gbit/s.
    pub gbps: f64,
    /// Lightpaths carrying this demand, in path order.
    pub lightpaths: Vec<LightpathId>,
}

/// The grooming manager's work as deterministic counts: what its walks and
/// releases asked of the optical state since the manager was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroomWork {
    /// Walks groomed: calls of `groom` / `groom_walk`.
    pub walks: u64,
    /// Segments those walks tried to place, on a reused lightpath or a
    /// new one, the segment a walk failed at included.
    pub placements: u64,
    /// Probes of the endpoint index: one per best fit, one per lightpath
    /// lit and one per lightpath torn down.
    pub endpoint_probes: u64,
    /// Lightpaths looked up by id in the registry: every best-fit
    /// candidate, every addition or removal of groomed bandwidth, every
    /// idle check and every teardown.
    pub registry_lookups: u64,
    /// Walks that failed at some segment and were rolled back.
    pub rollbacks: u64,
    /// Segments those walks had placed before they failed, each un-groomed
    /// (and its lightpath torn down if the walk lit it): a walk that fails
    /// at its first segment undoes nothing.
    pub undone: u64,
}

/// Grooms demands onto an [`OpticalState`], reusing existing lightpaths.
///
/// Demand ids are handed out in increasing order and never reused. The
/// demands are kept in a window over those ids, from the oldest live one
/// to the next to be issued: a lookup is an index, a release empties its
/// slot, and the window's front moves up as the oldest demands release. So
/// the window holds the ids issued while its oldest demand lives, whatever
/// the number issued before.
///
/// A placement that reuses a lightpath allocates nothing: the segment cuts
/// and the rollback list live in buffers the manager keeps, and a released
/// demand's lightpath list is handed to the next one.
#[derive(Debug, Default)]
pub struct GroomingManager {
    /// Slot `i` holds demand `first + i`, `None` once released; the first
    /// slot, if any, is live.
    demands: VecDeque<Option<GroomedDemand>>,
    /// Id of the window's first slot; `first + demands.len()` is the next
    /// id to be issued.
    first: u64,
    /// Count of segment placements that reused an existing lightpath.
    reuse_hits: u64,
    /// Count of segment placements that had to light a new wavelength.
    new_lights: u64,
    /// What the walks and releases so far asked of the optical state.
    work: GroomWork,
    /// Segment cuts of the path being groomed.
    ends: Vec<usize>,
    /// Lightpaths the groom in progress lit.
    established: Vec<LightpathId>,
    /// Emptied lightpath lists of released demands.
    spare: Vec<Vec<LightpathId>>,
}

impl GroomingManager {
    /// An empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Groom `gbps` along `path`: for every optical segment, reuse an
    /// existing same-endpoint lightpath with residual capacity (preferring
    /// the fullest, to pack — `OpticalState::best_fit`) or establish a
    /// new one on the first-fit wavelength.
    /// All-or-nothing: on failure every action is rolled back.
    pub fn groom(&mut self, optical: &mut OpticalState, path: &Path, gbps: f64) -> Result<u64> {
        self.groom_walk(optical, &path.nodes, &path.links, gbps)
    }

    /// [`groom`](GroomingManager::groom) for a walk held as slices
    /// (`links[i]` joins `nodes[i]` and `nodes[i + 1]`), so a caller that
    /// walks a tree into a buffer need not build a [`Path`] per chain.
    ///
    /// # Panics
    /// If `links` has fewer entries than `nodes` has hops.
    pub fn groom_walk(
        &mut self,
        optical: &mut OpticalState,
        nodes: &[NodeId],
        links: &[LinkId],
        gbps: f64,
    ) -> Result<u64> {
        self.work.walks += 1;
        segment_ends(optical.topo(), nodes, &mut self.ends)?;
        self.established.clear();
        let mut used = self.spare.pop().unwrap_or_default();

        let mut start = 0;
        for &end in &self.ends {
            self.work.placements += 1;
            let placed = match optical.best_fit(nodes[start], nodes[end], gbps, &mut self.work) {
                Some(id) => {
                    self.reuse_hits += 1;
                    Ok(id)
                }
                None => optical
                    .establish(sub_path(nodes, links, start, end))
                    .inspect(|id| {
                        self.new_lights += 1;
                        self.work.endpoint_probes += 1;
                        self.established.push(*id);
                    }),
            };
            let groomed = placed.and_then(|id| {
                self.work.registry_lookups += 1;
                optical.add_groomed(id, gbps).map(|()| id)
            });
            match groomed {
                Ok(id) => used.push(id),
                Err(e) => {
                    self.work.rollbacks += 1;
                    self.work.undone += used.len() as u64;
                    for id in used.drain(..) {
                        self.work.registry_lookups += 1;
                        let _ = optical.remove_groomed(id, gbps);
                    }
                    for id in self.established.drain(..) {
                        self.work.registry_lookups += 1;
                        self.work.endpoint_probes += 1;
                        let _ = optical.teardown(id);
                        self.new_lights = self.new_lights.saturating_sub(1);
                    }
                    self.spare.push(used);
                    return Err(e);
                }
            }
            start = end;
        }

        let id = self.first + self.demands.len() as u64;
        self.demands.push_back(Some(GroomedDemand {
            gbps,
            lightpaths: used,
        }));
        Ok(id)
    }

    /// Release a demand: remove its groomed bandwidth and tear down any
    /// lightpath left idle.
    pub fn release(&mut self, optical: &mut OpticalState, demand: u64) -> Result<()> {
        let GroomedDemand {
            gbps,
            mut lightpaths,
        } = self
            .slot(demand)
            .and_then(|at| self.demands[at].take())
            .ok_or(crate::OpticalError::UnknownAllocation(demand))?;
        while let Some(None) = self.demands.front() {
            self.demands.pop_front();
            self.first += 1;
        }
        // All removals before any teardown, and the first failure ends the
        // release where it stands — the list goes to the next demand either
        // way.
        let work = &mut self.work;
        let released = (|| {
            for id in &lightpaths {
                work.registry_lookups += 1;
                optical.remove_groomed(*id, gbps)?;
            }
            for id in &lightpaths {
                work.registry_lookups += 1;
                if optical.lightpath(*id).is_ok_and(|lp| lp.is_idle()) {
                    work.registry_lookups += 1;
                    work.endpoint_probes += 1;
                    optical.teardown(*id)?;
                }
            }
            Ok(())
        })();
        lightpaths.clear();
        self.spare.push(lightpaths);
        released
    }

    /// Position of demand `id`'s slot in the window, live or released.
    fn slot(&self, id: u64) -> Option<usize> {
        let at = usize::try_from(id.checked_sub(self.first)?).ok()?;
        (at < self.demands.len()).then_some(at)
    }

    /// Active demand count.
    #[cfg(test)]
    pub(crate) fn demand_count(&self) -> usize {
        self.demands.iter().flatten().count()
    }

    /// Look up a demand.
    pub fn demand(&self, id: u64) -> Option<&GroomedDemand> {
        self.demands[self.slot(id)?].as_ref()
    }

    /// How many segment placements reused existing lightpaths.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// How many segment placements lit new wavelengths.
    pub fn new_lights(&self) -> u64 {
        self.new_lights
    }

    /// The manager's work so far.
    pub fn work(&self) -> GroomWork {
        self.work
    }

    /// The `grooming` clause of the state invariant, against the `optical`
    /// state groomed: every demand rides live lightpaths, each lightpath's
    /// `groomed_gbps` sums its demands (±1e-6) and fits its capacity.
    pub fn check_invariants(
        &self,
        optical: &OpticalState,
    ) -> std::result::Result<(), (&'static str, String)> {
        let mut groomed: BTreeMap<LightpathId, f64> = BTreeMap::new();
        for d in self.demands.iter().flatten() {
            for lp in &d.lightpaths {
                *groomed.entry(*lp).or_default() += d.gbps;
            }
        }
        for lp in optical.lightpaths() {
            let want = groomed.remove(&lp.id).unwrap_or(0.0);
            if (lp.groomed_gbps - want).abs() > 1e-6 || lp.groomed_gbps > lp.capacity_gbps + 1e-6 {
                return Err(("grooming", format!("{lp:?} carries demands of {want} Gbps")));
            }
        }
        match groomed.keys().next() {
            Some(lp) => Err(("grooming", format!("a demand rides dead {lp}"))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::{algo, NodeKind, Topology};
    use std::sync::Arc;

    /// server - router - ROADM==ROADM - router - server, 4-wavelength core.
    fn rig() -> (Arc<Topology>, Path) {
        let mut t = Topology::new();
        let s0 = t.add_node(NodeKind::Server, "s0");
        let r0 = t.add_node(NodeKind::IpRouter, "r0");
        let o0 = t.add_node(NodeKind::Roadm, "o0");
        let o1 = t.add_node(NodeKind::Roadm, "o1");
        let r1 = t.add_node(NodeKind::IpRouter, "r1");
        let s1 = t.add_node(NodeKind::Server, "s1");
        t.add_link(s0, r0, 0.1, 400.0).unwrap();
        t.add_wdm_link(r0, o0, 0.1, 400.0, 4).unwrap();
        t.add_wdm_link(o0, o1, 20.0, 400.0, 4).unwrap();
        t.add_wdm_link(o1, r1, 0.1, 400.0, 4).unwrap();
        t.add_link(r1, s1, 0.1, 400.0).unwrap();
        let t = Arc::new(t);
        let p = algo::shortest_path(&t, s0, s1, algo::hop_weight).unwrap();
        (t, p)
    }

    #[test]
    fn first_demand_lights_new_wavelengths() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        let id = g.groom(&mut opt, &p, 10.0).unwrap();
        assert_eq!(g.demand_count(), 1);
        assert!(g.new_lights() >= 1);
        assert_eq!(g.reuse_hits(), 0);
        let d = g.demand(id).unwrap();
        // Segments: s0-r0 | r0-o0-o1-r1 | r1-s1.
        assert_eq!(d.lightpaths.len(), 3, "one lightpath per segment");
    }

    #[test]
    fn second_demand_reuses_lightpaths() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        g.groom(&mut opt, &p, 10.0).unwrap();
        let lights_before = opt.lightpath_count();
        g.groom(&mut opt, &p, 10.0).unwrap();
        assert_eq!(
            opt.lightpath_count(),
            lights_before,
            "second demand must not light new wavelengths"
        );
        assert!(g.reuse_hits() >= 1);
    }

    #[test]
    fn release_tears_down_idle_lightpaths() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        let id = g.groom(&mut opt, &p, 10.0).unwrap();
        assert!(opt.lightpath_count() > 0);
        g.release(&mut opt, id).unwrap();
        assert_eq!(opt.lightpath_count(), 0);
        assert_eq!(g.demand_count(), 0);
    }

    #[test]
    fn shared_lightpath_survives_partial_release() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        let a = g.groom(&mut opt, &p, 10.0).unwrap();
        let b = g.groom(&mut opt, &p, 10.0).unwrap();
        let count = opt.lightpath_count();
        g.release(&mut opt, a).unwrap();
        assert_eq!(opt.lightpath_count(), count, "b still grooms the paths");
        g.release(&mut opt, b).unwrap();
        assert_eq!(opt.lightpath_count(), 0);
    }

    #[test]
    fn capacity_exhaustion_spills_to_new_wavelength() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        // Core channel is 100 Gbps; two 60 G demands can't share a channel.
        g.groom(&mut opt, &p, 60.0).unwrap();
        let before = opt.lightpath_count();
        g.groom(&mut opt, &p, 60.0).unwrap();
        assert!(opt.lightpath_count() > before);
    }

    #[test]
    fn failure_rolls_back_cleanly() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(Arc::clone(&t));
        let mut g = GroomingManager::new();
        // Demand exceeding access-link channel capacity (100 G grey link):
        // grooming must fail and leave no residue.
        let err = g.groom(&mut opt, &p, 150.0);
        assert!(err.is_err());
        assert_eq!(opt.lightpath_count(), 0);
        assert_eq!(g.demand_count(), 0);
    }

    #[test]
    fn a_demand_the_lightpath_forgot_breaks_the_grooming_clause() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        let id = g.groom(&mut opt, &p, 10.0).unwrap();
        assert_eq!(opt.check_invariants(), Ok(()));
        assert_eq!(g.check_invariants(&opt), Ok(()));
        let at = g.slot(id).unwrap();
        g.demands[at].as_mut().unwrap().gbps = 20.0;
        assert_eq!(g.check_invariants(&opt).unwrap_err().0, "grooming");
    }

    /// Thousands of demands churn through a handful of live ones while one
    /// demand lives on: the window spans exactly the ids from the oldest
    /// live demand to the next one issued, and collapses to the churn's
    /// span once that demand is gone.
    #[test]
    fn the_demand_window_spans_the_live_ids_only() {
        let (t, p) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        let mut long_lived = Some(g.groom(&mut opt, &p, 1.0).unwrap());
        let mut live: Vec<u64> = Vec::new();
        let mut peak = 0;
        for step in 0..4000 {
            let id = g.groom(&mut opt, &p, 1.0).unwrap();
            live.push(id);
            if live.len() > 8 {
                // Not always the oldest: a slot behind the front empties
                // before the front does.
                let d = live.remove(step % 3);
                g.release(&mut opt, d).unwrap();
            }
            if step == 2000 {
                g.release(&mut opt, long_lived.take().unwrap()).unwrap();
            }
            let oldest = live.iter().chain(&long_lived).min().unwrap();
            assert_eq!(g.demands.len() as u64, id + 1 - oldest, "step {step}");
            assert_eq!(
                g.demand_count(),
                live.len() + usize::from(long_lived.is_some())
            );
            peak = peak.max(g.demands.len());
            if step > 2000 {
                assert!(g.demands.len() <= 12, "step {step}: {}", g.demands.len());
            }
        }
        assert!(peak > 2000, "the long-lived demand held the window open");
        for d in live {
            g.release(&mut opt, d).unwrap();
        }
        assert!(g.demands.is_empty());
        assert_eq!(opt.lightpath_count(), 0);
        assert_eq!(
            g.groom(&mut opt, &p, 1.0).unwrap(),
            4001,
            "ids are never reused"
        );
    }

    #[test]
    fn unknown_release_errors() {
        let (t, _) = rig();
        let mut opt = OpticalState::new(t);
        let mut g = GroomingManager::new();
        assert!(g.release(&mut opt, 9).is_err());
    }
}
