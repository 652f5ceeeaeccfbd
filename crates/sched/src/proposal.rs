//! Proposals: the output of the propose stage.
//!
//! A [`Proposal`] is a [`Schedule`] plus a typed [`ResourceClaims`]
//! manifest: exactly which directed link rates, wavelength feasibilities
//! and server slots the schedule needs. Schedulers return proposals and
//! mutate nothing; the orchestrator's committer validates the claims
//! against live state and atomically applies or rejects the proposal with
//! a typed conflict.

use crate::schedule::Schedule;
use crate::snapshot::NetworkSnapshot;
use crate::Result;
use flexsched_simnet::DirLink;
use flexsched_topo::{LinkId, NodeId};

/// One directed bandwidth claim: the aggregate rate this schedule needs on
/// one direction of one link (both procedures summed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkClaim {
    /// The directed link claimed.
    pub link: DirLink,
    /// Aggregate rate claimed, Gbit/s.
    pub gbps: f64,
}

/// One wavelength-feasibility claim: the scheduler assumed this link could
/// carry the task optically — a free wavelength to light, or an established
/// lightpath crossing it with at least `demand_gbps` of groomable headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WavelengthClaim {
    /// The physical link claimed.
    pub link: LinkId,
    /// Groomable headroom required if no wavelength is free, Gbit/s.
    pub demand_gbps: f64,
}

/// The full manifest of resources a proposal needs. Claims are the unit of
/// commit-time validation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResourceClaims {
    /// Per-directed-link aggregate rates, ascending by link then direction.
    pub links: Vec<LinkClaim>,
    /// Wavelength feasibility per distinct footprint link (empty when the
    /// proposal was computed without an optical view).
    pub wavelengths: Vec<WavelengthClaim>,
    /// Server sites that must host this task's containers (global site
    /// first, then the selected locals).
    pub server_slots: Vec<NodeId>,
    /// The effective rate floor the scheduler enforced, Gbit/s: plans whose
    /// weakest flow falls below this are malformed and must be rejected.
    pub rate_floor_gbps: f64,
}

/// The difference between a replacement proposal's claims and the schedule
/// it replaces: exactly which directed-link rates grow and which are
/// released. Incremental tree repair produces proposals whose delta covers
/// only the re-attached fragment, so the delta is both the unit of
/// interference analysis (which links a migration actually touches) and the
/// evidence that a repair was incremental rather than a full re-route.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClaimsDelta {
    /// Rate growth per directed link (new links, or increases on kept
    /// links), ascending by link then direction. `gbps` is the *increase*.
    pub added: Vec<LinkClaim>,
    /// Rate released per directed link (links left behind, or decreases on
    /// kept links), ascending; the value is the decrease, Gbit/s.
    pub removed: Vec<(DirLink, f64)>,
}

impl ClaimsDelta {
    /// Distinct physical links the migration touches (either list, either
    /// direction), ascending.
    #[cfg(test)]
    pub(crate) fn touched_links(&self) -> Vec<LinkId> {
        let mut links: Vec<LinkId> = self
            .added
            .iter()
            .map(|c| c.link.link)
            .chain(self.removed.iter().map(|(dl, _)| dl.link))
            .collect();
        links.sort_unstable();
        links.dedup();
        links
    }
}

impl ResourceClaims {
    /// Distinct physical links claimed (either direction).
    pub fn footprint(&self) -> Vec<LinkId> {
        let mut links: Vec<LinkId> = self.links.iter().map(|c| c.link.link).collect();
        links.sort_unstable();
        links.dedup();
        links
    }

    /// Delta of this claim-set versus the old schedule's per-directed-link
    /// aggregate (`old` ascending by directed link, as produced by
    /// aggregating `Schedule::reservations`). Links whose rate is unchanged
    /// (within 1e-9) appear in neither list.
    pub(crate) fn delta_from(&self, old: &[(DirLink, f64)]) -> ClaimsDelta {
        let mut delta = ClaimsDelta::default();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.links.len() || j < old.len() {
            let new_claim = self.links.get(i);
            let old_claim = old.get(j);
            match (new_claim, old_claim) {
                (Some(c), Some(&(dl, gbps))) if c.link == dl => {
                    let diff = c.gbps - gbps;
                    if diff > 1e-9 {
                        delta.added.push(LinkClaim { gbps: diff, ..*c });
                    } else if diff < -1e-9 {
                        delta.removed.push((dl, -diff));
                    }
                    i += 1;
                    j += 1;
                }
                (Some(c), Some(&(dl, _))) if c.link < dl => {
                    delta.added.push(*c);
                    i += 1;
                }
                (Some(c), None) => {
                    delta.added.push(*c);
                    i += 1;
                }
                (_, Some(&(dl, gbps))) => {
                    delta.removed.push((dl, gbps));
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        delta
    }
}

/// A complete scheduling proposal: the schedule itself plus the claims the
/// committer must validate, and the snapshot versions it was computed from.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The schedule to install if the claims validate.
    pub schedule: Schedule,
    /// The resources the schedule needs.
    pub claims: ResourceClaims,
    /// Global IP-layer snapshot version the proposal was computed from.
    pub snapshot_version: u64,
    /// Optical snapshot version, when an optical view was attached.
    pub optical_version: Option<u64>,
}

impl Proposal {
    /// Assemble a proposal from a freshly computed schedule: walk its
    /// reservations once and aggregate per directed link.
    ///
    /// Kept allocation-light (sort + in-place merge, no maps) because it
    /// runs once per scheduling decision on the control-plane hot path.
    pub(crate) fn assemble(schedule: Schedule, snap: &NetworkSnapshot) -> Result<Self> {
        let links: Vec<LinkClaim> = schedule
            .aggregated_reservations(snap.topo())?
            .into_iter()
            .map(|(dl, gbps)| LinkClaim { link: dl, gbps })
            .collect();
        let wavelengths = if snap.optical().is_some() {
            let mut footprint: Vec<LinkId> = links.iter().map(|c| c.link.link).collect();
            footprint.dedup(); // links are sorted by (link, dir) already
            footprint
                .into_iter()
                .map(|link| WavelengthClaim {
                    link,
                    demand_gbps: schedule.demand_gbps,
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut server_slots = Vec::with_capacity(schedule.selected_locals.len() + 1);
        server_slots.push(schedule.global_site);
        server_slots.extend_from_slice(&schedule.selected_locals);
        Ok(Proposal {
            claims: ResourceClaims {
                links,
                wavelengths,
                server_slots,
                rate_floor_gbps: snap.min_rate_gbps.min(schedule.demand_gbps),
            },
            snapshot_version: snap.version(),
            optical_version: snap.optical_version(),
            schedule,
        })
    }

    /// The task this proposal schedules.
    pub fn task(&self) -> flexsched_task::TaskId {
        self.schedule.task
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedSpff, FlexibleMst, Scheduler};
    use flexsched_compute::ModelProfile;
    use flexsched_simnet::NetworkState;
    use flexsched_task::{AiTask, TaskId};
    use flexsched_topo::builders;
    use std::sync::Arc;

    fn rig(locals: usize) -> (NetworkState, AiTask) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let state = NetworkState::new(Arc::clone(&topo));
        let servers = topo.servers();
        let task = AiTask {
            id: TaskId(0),
            model: ModelProfile::mobilenet(),
            global_site: servers[0],
            local_sites: servers[1..=locals].to_vec(),
            data_utility: Default::default(),
            iterations: 3,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        (state, task)
    }

    #[test]
    fn claims_aggregate_reservations_per_directed_link() {
        let (state, task) = rig(6);
        let snap = NetworkSnapshot::capture(&state);
        let p = FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        // Claims must sum to exactly the schedule's reservation total.
        let total: f64 = p
            .schedule
            .reservations(state.topo())
            .unwrap()
            .iter()
            .map(|(_, r)| r)
            .sum();
        let claimed: f64 = p.claims.links.iter().map(|c| c.gbps).sum();
        assert!((claimed - total).abs() < 1e-9);
        // Aggregation: no directed link appears twice.
        for w in p.claims.links.windows(2) {
            assert!(w[0].link < w[1].link, "claims must be strictly ascending");
        }
    }

    #[test]
    fn footprint_matches_schedule_footprint() {
        let (state, task) = rig(8);
        let snap = NetworkSnapshot::capture(&state);
        let p = FlexibleMst::paper()
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        let mut links = Vec::new();
        p.schedule.links_into(&mut links);
        assert_eq!(p.claims.footprint().len(), links.len());
    }

    #[test]
    fn wavelength_claims_only_with_optical_view() {
        let (state, task) = rig(4);
        let snap = NetworkSnapshot::capture(&state);
        let p = FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        assert!(p.claims.wavelengths.is_empty());
        assert!(p.optical_version.is_none());

        let optical = flexsched_optical::OpticalState::new(state.topo_arc());
        let snap = NetworkSnapshot::capture(&state).with_optical(&optical);
        let p = FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        assert_eq!(p.claims.wavelengths.len(), p.claims.footprint().len());
        assert_eq!(p.optical_version, Some(optical.version()));
        for w in &p.claims.wavelengths {
            assert!((w.demand_gbps - task.demand_gbps()).abs() < 1e-12);
        }
    }

    #[test]
    fn server_slots_cover_global_and_locals() {
        let (state, task) = rig(5);
        let snap = NetworkSnapshot::capture(&state);
        let p = FlexibleMst::paper()
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        assert_eq!(p.claims.server_slots[0], task.global_site);
        assert_eq!(&p.claims.server_slots[1..], task.local_sites.as_slice());
        assert_eq!(p.task(), task.id);
    }

    #[test]
    fn claim_versions_record_the_snapshot() {
        let (mut state, task) = rig(3);
        state
            .reserve(
                DirLink::new(LinkId(0), flexsched_topo::Direction::AtoB),
                1.0,
            )
            .unwrap();
        let snap = NetworkSnapshot::capture(&state);
        let p = FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        assert_eq!(p.snapshot_version, snap.version());
    }
}
