//! Proposals: the output of the propose stage.
//!
//! A [`Proposal`] is a [`Schedule`] plus the snapshot versions it was
//! computed from. Schedulers return proposals and mutate nothing; the
//! orchestrator's committer validates the schedule itself against live
//! state — its rate floor, its server sites, the aggregate rate on each
//! directed link it crosses and, when it was proposed with an optical
//! view, each link's wavelength feasibility — and stores exactly what it
//! validated, or rejects the proposal with a typed conflict.

use crate::schedule::Schedule;
use crate::snapshot::NetworkSnapshot;

/// Marks a migration that came from the incremental repair path
/// ([`RescheduleVerdict::Migrate`](crate::RescheduleVerdict::Migrate)'s
/// `repair_delta`). It carries nothing: a repair commits like any
/// migration. The type survives because the benchmark adapter names it
/// (ROADMAP item 1 step B).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClaimsDelta;

/// A complete scheduling proposal: the schedule itself and the snapshot
/// versions it was computed from.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The schedule to store if it validates against live state.
    pub schedule: Schedule,
    /// Global IP-layer snapshot version the proposal was computed from.
    pub snapshot_version: u64,
    /// Optical snapshot version, when an optical view was attached (the
    /// committer then checks the wavelength feasibility of every link).
    pub optical_version: Option<u64>,
}

impl Proposal {
    /// Wrap a freshly computed schedule with the versions of `snap`.
    pub(crate) fn assemble(schedule: Schedule, snap: &NetworkSnapshot) -> Self {
        Proposal {
            schedule,
            snapshot_version: snap.version(),
            optical_version: snap.optical_version(),
        }
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
    use flexsched_simnet::{DirLink, NetworkState};
    use flexsched_task::{AiTask, TaskId};
    use flexsched_topo::{builders, LinkId};
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
        // The per-directed-link rates the committer validates sum to
        // exactly the schedule's reservation total.
        let (state, task) = rig(6);
        let snap = NetworkSnapshot::capture(&state);
        let p = FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        let total: f64 = p
            .schedule
            .reservations(state.topo())
            .unwrap()
            .iter()
            .map(|(_, r)| r)
            .sum();
        let rates = p.schedule.aggregated_reservations(state.topo()).unwrap();
        let claimed: f64 = rates.iter().map(|(_, gbps)| gbps).sum();
        assert!((claimed - total).abs() < 1e-9);
        // Aggregation: no directed link appears twice.
        for w in rates.windows(2) {
            assert!(w[0].0 < w[1].0, "rates must be strictly ascending");
        }
    }

    #[test]
    fn footprint_matches_schedule_footprint() {
        // The links the committer checks for wavelengths are exactly the
        // links it checks rates on.
        let (state, task) = rig(8);
        let snap = NetworkSnapshot::capture(&state);
        let p = FlexibleMst::paper()
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        let mut links = Vec::new();
        p.schedule.links_into(&mut links);
        let rates = p.schedule.aggregated_reservations(state.topo()).unwrap();
        let mut rated: Vec<LinkId> = rates.iter().map(|(dl, _)| dl.link).collect();
        rated.dedup();
        assert_eq!(rated, links);
    }

    #[test]
    fn wavelength_claims_only_with_optical_view() {
        let (state, task) = rig(4);
        let snap = NetworkSnapshot::capture(&state);
        let p = FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        assert!(p.optical_version.is_none());

        let optical = flexsched_optical::OpticalState::new(state.topo_arc());
        let snap = NetworkSnapshot::capture(&state).with_optical(&optical);
        let p = FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        assert_eq!(p.optical_version, Some(optical.version()));
        assert!((p.schedule.demand_gbps - task.demand_gbps()).abs() < 1e-12);
    }

    #[test]
    fn server_slots_cover_global_and_locals() {
        let (state, task) = rig(5);
        let snap = NetworkSnapshot::capture(&state);
        let p = FlexibleMst::paper()
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        assert_eq!(p.schedule.global_site, task.global_site);
        assert_eq!(p.schedule.selected_locals, task.local_sites);
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
