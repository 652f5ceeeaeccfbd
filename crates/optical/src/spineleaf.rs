//! All-optical spine-leaf fabric helpers (poster open challenge #3).
//!
//! The poster argues existing access/metro/core architectures fit poorly for
//! distributed compute and points to all-optical spine-leaf fabrics with
//! collaborative OCS + OTS management. This module provides circuit setup
//! across such a fabric: pick the least-loaded spine for a leaf-to-leaf
//! wavelength circuit, fall back to timeslot sharing for small demands, and
//! report fabric-level statistics.

use crate::rwa::OpticalState;
use crate::timeslot::{ocs_or_ots, CircuitGrain, TimeslotTable};
use crate::Result;
use flexsched_topo::{algo, NodeId, NodeKind, Path};

/// How a leaf-to-leaf demand was carried across the fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricCircuit {
    /// Demand endpoints (leaf switches).
    pub from: NodeId,
    /// Destination leaf.
    pub to: NodeId,
    /// Spine the circuit crosses.
    pub spine: NodeId,
    /// Established lightpath (whole circuit, leaf->spine->leaf).
    pub lightpath: crate::LightpathId,
    /// Wavelength grain decision that was made.
    pub grain: CircuitGrain,
    /// Timeslot allocation id when `grain` is OTS.
    pub slots: Option<u64>,
}

/// Identify the spine nodes of a spine-leaf fabric: optical switches whose
/// neighbors are all switches (no attached servers).
pub fn spines(state: &OpticalState) -> Vec<NodeId> {
    let topo = state.topo();
    topo.nodes()
        .iter()
        .filter(|n| n.kind == NodeKind::Roadm || n.kind == NodeKind::IpRouter)
        .filter(|n| {
            topo.neighbors(n.id)
                .map(|nbrs| {
                    !nbrs.is_empty()
                        && nbrs.iter().all(|(nbr, _)| {
                            topo.node(*nbr)
                                .map(|m| m.kind != NodeKind::Server)
                                .unwrap_or(false)
                        })
                })
                .unwrap_or(false)
        })
        .map(|n| n.id)
        .collect()
}

/// Identify leaf switches: non-server switching nodes with at least one
/// attached server.
pub fn leaves(state: &OpticalState) -> Vec<NodeId> {
    let topo = state.topo();
    topo.nodes()
        .iter()
        .filter(|n| n.kind != NodeKind::Server)
        .filter(|n| {
            topo.neighbors(n.id)
                .map(|nbrs| {
                    nbrs.iter().any(|(nbr, _)| {
                        topo.node(*nbr)
                            .map(|m| m.kind == NodeKind::Server)
                            .unwrap_or(false)
                    })
                })
                .unwrap_or(false)
        })
        .map(|n| n.id)
        .collect()
}

/// Wavelength-slots in use crossing each spine (load metric for balancing).
fn spine_load(state: &OpticalState, spine: NodeId) -> usize {
    state
        .lightpaths()
        .filter(|lp| lp.path.nodes.contains(&spine))
        .count()
}

/// Establish a leaf-to-leaf circuit through the least-loaded spine, with the
/// OCS/OTS grain decided by demand size.
///
/// `slots` must be the fabric's shared [`TimeslotTable`]; new lightpaths are
/// registered there automatically.
pub fn establish_circuit(
    state: &mut OpticalState,
    slots: &mut TimeslotTable,
    from_leaf: NodeId,
    to_leaf: NodeId,
    demand_gbps: f64,
    ocs_threshold: f64,
) -> Result<FabricCircuit> {
    let spine_ids = spines(state);
    // Deterministic least-loaded spine first.
    let mut ordered: Vec<NodeId> = spine_ids;
    ordered.sort_by_key(|s| (spine_load(state, *s), *s));

    // First pass: when the grain is OTS, reuse an existing leaf-to-leaf
    // circuit with free slots over *any* spine before lighting wavelengths.
    for &spine in &ordered {
        let Ok(path) = leaf_spine_leaf_path(state, from_leaf, spine, to_leaf) else {
            continue;
        };
        let channel = path
            .links
            .iter()
            .map(|l| {
                state
                    .topo()
                    .link(*l)
                    .map(|x| x.channel_gbps())
                    .unwrap_or(0.0)
            })
            .fold(f64::INFINITY, f64::min);
        let grain = ocs_or_ots(demand_gbps, channel, slots.slots_per_frame(), ocs_threshold);
        let CircuitGrain::Timeslots(n) = grain else {
            continue;
        };
        let existing = state
            .lightpaths()
            .find(|lp| {
                lp.path == path
                    && slots.free_slots(lp.id) >= n
                    && lp.residual_gbps() + 1e-9 >= demand_gbps
            })
            .map(|lp| lp.id);
        if let Some(existing) = existing {
            let alloc = slots.allocate(existing, n)?;
            state.add_groomed(existing, demand_gbps)?;
            return Ok(FabricCircuit {
                from: from_leaf,
                to: to_leaf,
                spine,
                lightpath: existing,
                grain,
                slots: Some(alloc.id),
            });
        }
    }

    let mut last_err = crate::OpticalError::NoFreeWavelength;
    for spine in ordered {
        let path = match leaf_spine_leaf_path(state, from_leaf, spine, to_leaf) {
            Ok(p) => p,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        let channel = path
            .links
            .iter()
            .map(|l| {
                state
                    .topo()
                    .link(*l)
                    .map(|x| x.channel_gbps())
                    .unwrap_or(0.0)
            })
            .fold(f64::INFINITY, f64::min);
        let grain = ocs_or_ots(demand_gbps, channel, slots.slots_per_frame(), ocs_threshold);
        match state.establish(path) {
            Ok(id) => {
                slots.register(id);
                let slot_alloc = match grain {
                    CircuitGrain::FullWavelength => {
                        // Whole frame: mark every slot taken.
                        let alloc = slots.allocate(id, slots.slots_per_frame())?;
                        state.add_groomed(id, demand_gbps.min(channel))?;
                        Some(alloc.id)
                    }
                    CircuitGrain::Timeslots(n) => {
                        let alloc = slots.allocate(id, n)?;
                        state.add_groomed(id, demand_gbps)?;
                        Some(alloc.id)
                    }
                };
                return Ok(FabricCircuit {
                    from: from_leaf,
                    to: to_leaf,
                    spine,
                    lightpath: id,
                    grain,
                    slots: slot_alloc,
                });
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// The two-hop leaf->spine->leaf path (errors if links are missing).
fn leaf_spine_leaf_path(
    state: &OpticalState,
    from: NodeId,
    spine: NodeId,
    to: NodeId,
) -> Result<Path> {
    let topo = state.topo();
    let up = topo
        .find_link(from, spine)
        .ok_or(flexsched_topo::TopoError::Disconnected { from, to: spine })?;
    let down = topo
        .find_link(spine, to)
        .ok_or(flexsched_topo::TopoError::Disconnected { from: spine, to })?;
    Ok(Path::new(vec![from, spine, to], vec![up, down])?)
}

/// Fabric statistics for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricStats {
    /// Number of spine switches.
    pub spines: usize,
    /// Number of leaf switches.
    pub leaves: usize,
    /// Established lightpaths.
    pub lightpaths: usize,
    /// Wavelength-slot utilization across the fabric.
    pub wavelength_utilization: f64,
}

/// Snapshot fabric statistics.
pub fn fabric_stats(state: &OpticalState) -> FabricStats {
    FabricStats {
        spines: spines(state).len(),
        leaves: leaves(state).len(),
        lightpaths: state.lightpath_count(),
        wavelength_utilization: state.wavelength_utilization(),
    }
}

/// Average shortest-path hop count between all server pairs — the metric by
/// which spine-leaf beats ring/mesh metro topologies for east-west AI
/// traffic.
pub fn mean_server_hops(state: &OpticalState) -> f64 {
    let topo = state.topo();
    let servers = topo.servers();
    if servers.len() < 2 {
        return 0.0;
    }
    let mut total = 0usize;
    let mut pairs = 0usize;
    for (i, a) in servers.iter().enumerate() {
        let spt = algo::shortest_path_tree(topo, *a, algo::hop_weight).expect("server id valid");
        for b in &servers[i + 1..] {
            if spt.reachable(*b) {
                total += spt.cost_to(*b) as usize;
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::builders;
    use std::sync::Arc;

    fn fabric() -> OpticalState {
        OpticalState::new(Arc::new(builders::spine_leaf(2, 4, 2, true, 400.0)))
    }

    #[test]
    fn spine_and_leaf_detection() {
        let s = fabric();
        assert_eq!(spines(&s).len(), 2);
        assert_eq!(leaves(&s).len(), 4);
    }

    #[test]
    fn circuit_uses_a_spine() {
        let mut s = fabric();
        let mut slots = TimeslotTable::new(10);
        let l = leaves(&s);
        let c = establish_circuit(&mut s, &mut slots, l[0], l[1], 80.0, 0.5).unwrap();
        assert!(spines(&s).contains(&c.spine));
        assert_eq!(c.grain, CircuitGrain::FullWavelength);
        assert_eq!(s.lightpath_count(), 1);
    }

    #[test]
    fn small_demands_share_via_timeslots() {
        let mut s = fabric();
        let mut slots = TimeslotTable::new(10);
        let l = leaves(&s);
        let a = establish_circuit(&mut s, &mut slots, l[0], l[1], 10.0, 0.5).unwrap();
        let b = establish_circuit(&mut s, &mut slots, l[0], l[1], 10.0, 0.5).unwrap();
        assert!(matches!(a.grain, CircuitGrain::Timeslots(_)));
        assert_eq!(
            a.lightpath, b.lightpath,
            "second small demand shares the wavelength via OTS"
        );
        assert_eq!(s.lightpath_count(), 1);
    }

    #[test]
    fn big_demands_get_separate_wavelengths() {
        let mut s = fabric();
        let mut slots = TimeslotTable::new(10);
        let l = leaves(&s);
        let a = establish_circuit(&mut s, &mut slots, l[0], l[1], 90.0, 0.5).unwrap();
        let b = establish_circuit(&mut s, &mut slots, l[0], l[1], 90.0, 0.5).unwrap();
        assert_ne!(a.lightpath, b.lightpath);
    }

    #[test]
    fn load_balances_across_spines() {
        let mut s = fabric();
        let mut slots = TimeslotTable::new(10);
        let l = leaves(&s);
        let a = establish_circuit(&mut s, &mut slots, l[0], l[1], 90.0, 0.5).unwrap();
        let b = establish_circuit(&mut s, &mut slots, l[2], l[3], 90.0, 0.5).unwrap();
        assert_ne!(a.spine, b.spine, "least-loaded spine should alternate");
    }

    #[test]
    fn stats_reflect_circuits() {
        let mut s = fabric();
        let mut slots = TimeslotTable::new(10);
        let l = leaves(&s);
        establish_circuit(&mut s, &mut slots, l[0], l[1], 90.0, 0.5).unwrap();
        let st = fabric_stats(&s);
        assert_eq!(st.lightpaths, 1);
        assert!(st.wavelength_utilization > 0.0);
        assert_eq!(st.spines, 2);
        assert_eq!(st.leaves, 4);
    }

    #[test]
    fn spine_leaf_has_fewer_mean_hops_than_ring_metro() {
        let sl = OpticalState::new(Arc::new(builders::spine_leaf(2, 6, 2, true, 400.0)));
        let ring = OpticalState::new(Arc::new(builders::metro(&builders::MetroParams {
            core_roadms: 6,
            servers_per_router: 2,
            chords: 0,
            ..builders::MetroParams::default()
        })));
        assert!(
            mean_server_hops(&sl) < mean_server_hops(&ring),
            "spine-leaf {} vs ring {}",
            mean_server_hops(&sl),
            mean_server_hops(&ring)
        );
    }
}
