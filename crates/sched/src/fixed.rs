//! The fixed scheduler: shortest path + first fit (SPFF).
//!
//! "The fixed scheduler considers a fixed set of direct communication links
//! between the global model and each local model. AI model weights are
//! transmitted using end-to-end links in broadcast and upload procedures,
//! and then only aggregated in the node with a global model."
//!
//! Routing: per local model, the latency-shortest path; if the optical
//! layer has no free wavelength along it, the next of `K_PATHS` shortest
//! paths is probed (classic SPFF behaviour). Rates: each flow asks for the task's
//! demand, scaled down by fair sharing where this task's own flows collide
//! on a link (the incast at the global site's access link — the effect that
//! costs the baseline its latency at high local-model counts).
//!
//! The scheduler is a pure function of [`NetworkSnapshot`] + task: it reads
//! the frozen residuals and wavelength occupancy and returns a [`Proposal`]
//! whose schedule the orchestrator's committer validates against live
//! state.

use crate::error::{BlockReason, SchedError};
use crate::proposal::Proposal;
use crate::schedule::{rate_floor_gbps, RatedPath, RoutingPlan, Schedule};
use crate::snapshot::NetworkSnapshot;
use crate::weights::spff_weight;
use crate::{Result, Scheduler};
use flexsched_optical::split_at_electrical;
use flexsched_simnet::{DirLink, NetworkState};
use flexsched_task::AiTask;
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::{algo, NodeId, Path};
use std::collections::BTreeMap;

/// How many alternate (k-shortest) paths the fixed scheduler probes per
/// local before declaring it blocked.
pub(crate) const K_PATHS: usize = 3;

/// The SPFF baseline scheduler.
#[derive(Debug, Clone, Default)]
pub struct FixedSpff;

impl FixedSpff {
    /// Probe the k-shortest candidates for one local and return the first
    /// that is wavelength-feasible (or the first candidate when the
    /// snapshot carries no optical view).
    fn route_one(&self, task: &AiTask, local: NodeId, snap: &NetworkSnapshot) -> Result<Path> {
        let candidates =
            algo::k_shortest_paths(snap.topo(), task.global_site, local, K_PATHS, |l| {
                spff_weight(snap, l)
            })
            .map_err(|_| SchedError::Unreachable {
                task: task.id,
                site: local,
            })?;
        let demand = task.demand_gbps();
        for cand in candidates {
            if let Some(opt) = snap.optical() {
                // A segment is feasible with a free wavelength (first fit
                // will light it) or an existing same-endpoint lightpath with
                // groomable residual capacity.
                let feasible = split_at_electrical(snap.topo(), &cand)
                    .map_err(SchedError::from)?
                    .iter()
                    .all(|seg| {
                        opt.path_has_free_wavelength(seg).unwrap_or(false)
                            || opt.groomable_between(seg.source(), seg.destination(), demand)
                    });
                if !feasible {
                    continue;
                }
            }
            return Ok(cand);
        }
        Err(SchedError::Blocked {
            task: task.id,
            reason: BlockReason::NoWavelengthFeasiblePath { local },
        })
    }
}

/// Fair-share rates for a set of directed paths that all want `demand`:
/// each flow gets `min(demand, min over its hops of residual / collisions)`
/// where `collisions` counts how many of *these* flows use the same
/// directed hop.
fn fair_share_rates(
    net: &NetworkState,
    paths: &BTreeMap<NodeId, Path>,
    demand: f64,
) -> Result<BTreeMap<NodeId, f64>> {
    let topo = net.topo();
    let mut multiplicity: BTreeMap<DirLink, f64> = BTreeMap::new();
    for p in paths.values() {
        for (i, l) in p.links.iter().enumerate() {
            let dir = topo
                .link(*l)?
                .direction_from(p.nodes[i])
                .ok_or(flexsched_topo::TopoError::UnknownLink(*l))?;
            *multiplicity.entry(DirLink::new(*l, dir)).or_insert(0.0) += 1.0;
        }
    }
    let mut rates = BTreeMap::new();
    for (local, p) in paths {
        let mut rate = demand;
        for (i, l) in p.links.iter().enumerate() {
            let dir = topo
                .link(*l)?
                .direction_from(p.nodes[i])
                .ok_or(flexsched_topo::TopoError::UnknownLink(*l))?;
            let dl = DirLink::new(*l, dir);
            let m = multiplicity[&dl];
            let residual = net.residual_gbps(dl).map_err(SchedError::from)?;
            rate = rate.min(residual / m);
        }
        rates.insert(*local, rate);
    }
    Ok(rates)
}

impl Scheduler for FixedSpff {
    fn name(&self) -> &'static str {
        "fixed-spff"
    }

    fn propose(
        &self,
        task: &AiTask,
        selected: &[NodeId],
        snap: &NetworkSnapshot,
        _scratch: &mut ScratchPool,
    ) -> Result<Proposal> {
        if selected.is_empty() {
            return Err(SchedError::NothingSelected(task.id));
        }
        let demand = task.demand_gbps();

        // Route every local.
        let mut down_paths: BTreeMap<NodeId, Path> = BTreeMap::new();
        let mut up_paths: BTreeMap<NodeId, Path> = BTreeMap::new();
        for local in selected {
            let down = self.route_one(task, *local, snap)?;
            up_paths.insert(*local, down.reversed());
            down_paths.insert(*local, down);
        }

        // Fair-share rates per direction.
        let down_rates = fair_share_rates(snap.net(), &down_paths, demand)?;
        let up_rates = fair_share_rates(snap.net(), &up_paths, demand)?;

        // A task runs both procedures over the same circuit: use the
        // symmetric (min) rate so the reservation is honest in both
        // directions.
        let mut broadcast = BTreeMap::new();
        let mut upload = BTreeMap::new();
        for local in selected {
            let rate = down_rates[local].min(up_rates[local]);
            // Floor only bites when congestion (not a small demand) is the
            // reason the rate is low.
            if rate < rate_floor_gbps(demand) {
                return Err(SchedError::Blocked {
                    task: task.id,
                    reason: BlockReason::FairShareBelowFloor {
                        rate_gbps: rate,
                        local: *local,
                    },
                });
            }
            broadcast.insert(
                *local,
                RatedPath {
                    path: down_paths[local].clone(),
                    rate_gbps: rate,
                },
            );
            upload.insert(
                *local,
                RatedPath {
                    path: up_paths[local].clone(),
                    rate_gbps: rate,
                },
            );
        }

        Ok(Proposal::assemble(
            Schedule {
                task: task.id,
                scheduler: self.name(),
                global_site: task.global_site,
                selected_locals: selected.to_vec(),
                demand_gbps: demand,
                broadcast: RoutingPlan::Paths(broadcast),
                upload: RoutingPlan::Paths(upload),
            },
            snap,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_compute::ModelProfile;
    use flexsched_simnet::NetworkState;
    use flexsched_task::TaskId;
    use flexsched_topo::builders;
    use std::sync::Arc;

    fn task_on_metro(locals: usize) -> (NetworkState, AiTask) {
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

    fn schedule_on(state: &NetworkState, task: &AiTask) -> Schedule {
        let snap = NetworkSnapshot::capture(state);
        FixedSpff
            .propose_once(task, &task.local_sites, &snap)
            .unwrap()
            .schedule
    }

    #[test]
    fn schedules_every_selected_local() {
        let (state, task) = task_on_metro(5);
        let s = schedule_on(&state, &task);
        match &s.broadcast {
            RoutingPlan::Paths(m) => assert_eq!(m.len(), 5),
            _ => panic!("fixed must produce per-local paths"),
        }
        assert_eq!(s.scheduler, "fixed-spff");
    }

    #[test]
    fn paths_run_between_the_right_endpoints() {
        let (state, task) = task_on_metro(4);
        let s = schedule_on(&state, &task);
        if let (RoutingPlan::Paths(down), RoutingPlan::Paths(up)) = (&s.broadcast, &s.upload) {
            for (local, rp) in down {
                assert_eq!(rp.path.source(), task.global_site);
                assert_eq!(rp.path.destination(), *local);
            }
            for (local, rp) in up {
                assert_eq!(rp.path.source(), *local);
                assert_eq!(rp.path.destination(), task.global_site);
            }
        } else {
            panic!("expected path plans");
        }
    }

    #[test]
    fn schedule_applies_cleanly() {
        let (mut state, task) = task_on_metro(6);
        let s = schedule_on(&state, &task);
        s.apply(&mut state).unwrap();
        assert!(state.total_reserved_gbps() > 0.0);
        s.release(&mut state).unwrap();
        assert!(state.total_reserved_gbps().abs() < 1e-9);
    }

    #[test]
    fn proposing_mutates_nothing() {
        let (state, task) = task_on_metro(6);
        let version_before = state.version();
        let _ = schedule_on(&state, &task);
        assert_eq!(state.version(), version_before, "proposing must not mutate");
        assert!(state.total_reserved_gbps().abs() < 1e-12);
    }

    #[test]
    fn incast_compresses_rates_as_locals_grow() {
        let (state_small, task_small) = task_on_metro(2);
        let (state_big, task_big) = task_on_metro(15);
        let small = schedule_on(&state_small, &task_small);
        let big = schedule_on(&state_big, &task_big);
        // Per-flow rate shrinks when 15 flows share the global access link.
        assert!(
            big.broadcast.min_rate_gbps() < small.broadcast.min_rate_gbps(),
            "big {} !< small {}",
            big.broadcast.min_rate_gbps(),
            small.broadcast.min_rate_gbps()
        );
    }

    #[test]
    fn bandwidth_grows_linearly_with_locals() {
        let mut prev = 0.0;
        for n in [3, 6, 9, 12] {
            let (state, task) = task_on_metro(n);
            let s = schedule_on(&state, &task);
            let bw = s.total_bandwidth_gbps(state.topo()).unwrap();
            assert!(bw > prev, "bandwidth must grow with locals");
            prev = bw;
        }
    }

    #[test]
    fn down_links_are_routed_around() {
        let (mut state, task) = task_on_metro(3);
        // Cut the first metro core ring span; routing must still succeed
        // thanks to the ring + chords.
        state.set_down(flexsched_topo::LinkId(0), true).unwrap();
        let s = schedule_on(&state, &task);
        for (dl, _) in s.reservations(state.topo()).unwrap() {
            assert_ne!(dl.link, flexsched_topo::LinkId(0));
        }
    }

    #[test]
    fn saturated_network_blocks() {
        let (mut state, task) = task_on_metro(3);
        // Saturate the global site's access link in both directions.
        let topo = state.topo_arc();
        let access = topo.neighbors(task.global_site).unwrap().first().unwrap().1;
        for dir in [
            flexsched_topo::Direction::AtoB,
            flexsched_topo::Direction::BtoA,
        ] {
            state
                .add_background(DirLink::new(access, dir), 1_000.0)
                .unwrap();
        }
        let snap = NetworkSnapshot::capture(&state);
        let err = FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap_err();
        assert!(
            matches!(
                err,
                SchedError::Blocked { .. } | SchedError::Unreachable { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn empty_selection_is_rejected() {
        let (state, task) = task_on_metro(3);
        let snap = NetworkSnapshot::capture(&state);
        assert!(matches!(
            FixedSpff.propose_once(&task, &[], &snap),
            Err(SchedError::NothingSelected(_))
        ));
    }

    #[test]
    fn wavelength_pressure_diverts_to_longer_path() {
        use flexsched_optical::OpticalState;
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let state = NetworkState::new(Arc::clone(&topo));
        let mut opt = OpticalState::new(Arc::clone(&topo));
        let servers = topo.servers();
        // Exhaust wavelengths on the roadm0-roadm1 core span that the
        // shortest G->L route crosses (leaving the ring detour available).
        let direct = algo::shortest_path(
            &topo,
            servers[0],
            servers[4],
            flexsched_topo::algo::latency_weight,
        )
        .unwrap();
        let roadm0 = flexsched_topo::NodeId(0);
        let roadm1 = flexsched_topo::NodeId(1);
        assert!(direct.nodes.contains(&roadm0) && direct.nodes.contains(&roadm1));
        let span = topo.find_link(roadm0, roadm1).unwrap();
        let one_hop = Path::new(vec![roadm0, roadm1], vec![span]).unwrap();
        while opt.establish(one_hop.clone()).is_ok() {}
        let task = AiTask {
            id: TaskId(0),
            model: ModelProfile::mobilenet(),
            global_site: servers[0],
            local_sites: vec![servers[4]],
            data_utility: Default::default(),
            iterations: 1,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        let snap = NetworkSnapshot::capture(&state).with_optical(&opt);
        let s = FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap()
            .schedule;
        if let RoutingPlan::Paths(m) = &s.broadcast {
            let chosen = &m[&servers[4]].path;
            assert_ne!(chosen, &direct, "must divert off the exhausted route");
        }
    }
}
