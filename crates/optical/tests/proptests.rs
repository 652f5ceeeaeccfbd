//! Property-based tests for the optical layer.

use flexsched_optical::{
    split_at_electrical, GroomingManager, LightpathId, OpticalError, OpticalState, TimeslotTable,
    WavelengthId,
};
use flexsched_topo::{algo, builders, Path};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One first-fit lightpath per segment of `path` between electrical nodes,
/// all or none.
fn establish_route(
    state: &mut OpticalState,
    path: &Path,
) -> Result<Vec<LightpathId>, OpticalError> {
    let mut ids = Vec::new();
    for segment in split_at_electrical(state.topo(), path)? {
        match state.establish(segment) {
            Ok(id) => ids.push(id),
            Err(e) => {
                for id in ids {
                    state.teardown(id)?;
                }
                return Err(e);
            }
        }
    }
    Ok(ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No (link, wavelength) slot is ever held by two lightpaths, across any
    /// interleaving of establishments and teardowns.
    #[test]
    fn rwa_never_double_books(
        ops in proptest::collection::vec((0u8..2, 0usize..100), 1..60)
    ) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        let mut live: Vec<LightpathId> = Vec::new();

        for (op, pick) in ops {
            if op == 0 || live.is_empty() {
                let a = servers[pick % servers.len()];
                let b = servers[(pick / 7 + 1) % servers.len()];
                if a == b { continue; }
                let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
                if let Ok(ids) = establish_route(&mut state, &path) {
                    live.extend(ids);
                }
            } else {
                let id = live.swap_remove(pick % live.len());
                state.teardown(id).unwrap();
            }
            prop_assert_eq!(state.check_invariants(), Ok(()));

            // Invariant: every lightpath's wavelength slot maps back to it,
            // and no two lightpaths claim the same slot.
            let mut seen: BTreeMap<(u32, u16), u64> = BTreeMap::new();
            for lp in state.lightpaths() {
                for l in &lp.path.links {
                    let key = (l.0, lp.wavelength.0);
                    prop_assert!(
                        seen.insert(key, lp.id.0).is_none(),
                        "slot {key:?} double-booked"
                    );
                    prop_assert!(!state.is_free(*l, lp.wavelength).unwrap());
                }
            }
        }
    }

    /// Grooming then releasing every demand leaves zero lightpaths, and
    /// groomed bandwidth never exceeds lightpath capacity meanwhile.
    #[test]
    fn grooming_conserves_and_caps(
        demands in proptest::collection::vec((0usize..100, 1.0f64..40.0), 1..20)
    ) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        let mut mgr = GroomingManager::new();
        let mut ids = Vec::new();
        for (pick, gbps) in demands {
            let a = servers[pick % servers.len()];
            let b = servers[(pick + 1) % servers.len()];
            if a == b { continue; }
            let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
            if let Ok(id) = mgr.groom(&mut state, &path, gbps) {
                ids.push(id);
            }
            prop_assert_eq!(state.check_invariants(), Ok(()));
            prop_assert_eq!(mgr.check_invariants(&state), Ok(()));
            for lp in state.lightpaths() {
                prop_assert!(lp.groomed_gbps <= lp.capacity_gbps + 1e-6,
                    "lightpath over-groomed: {} > {}", lp.groomed_gbps, lp.capacity_gbps);
            }
        }
        for id in ids {
            mgr.release(&mut state, id).unwrap();
            prop_assert_eq!(state.check_invariants(), Ok(()));
            prop_assert_eq!(mgr.check_invariants(&state), Ok(()));
        }
        prop_assert_eq!(state.lightpath_count(), 0);
    }

    /// Timeslot allocations are pairwise disjoint and free+held = frame.
    #[test]
    fn timeslots_partition_the_frame(
        frame in 1u16..32,
        asks in proptest::collection::vec(1u16..8, 1..20),
    ) {
        let mut table = TimeslotTable::new(frame);
        let lp = LightpathId(0);
        table.register(lp);
        let mut allocs = Vec::new();
        let mut held = 0u16;
        for ask in asks {
            match table.allocate(lp, ask) {
                Ok(a) => {
                    prop_assert_eq!(a.slots.len(), ask as usize);
                    held += ask;
                    allocs.push(a);
                }
                Err(_) => {
                    prop_assert!(held + ask > frame, "refused although space existed");
                }
            }
            prop_assert_eq!(table.free_slots(lp), frame - held);
        }
        // Disjointness.
        let mut seen = std::collections::BTreeSet::new();
        for a in &allocs {
            for s in &a.slots {
                prop_assert!(seen.insert(*s), "slot {s} double-allocated");
            }
        }
        // Release everything; frame is whole again.
        for a in allocs {
            table.release(a.id).unwrap();
        }
        prop_assert_eq!(table.free_slots(lp), frame);
    }

    /// establish/teardown round trip leaves wavelength utilization at zero.
    #[test]
    fn establish_teardown_round_trip(seed in 0u64..500) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        let a = servers[(seed as usize) % servers.len()];
        let b = servers[(seed as usize + 3) % servers.len()];
        prop_assume!(a != b);
        let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
        let ids = establish_route(&mut state, &path).unwrap();
        prop_assert!(state.wavelength_utilization() > 0.0);
        prop_assert_eq!(state.check_invariants(), Ok(()));
        for id in ids {
            state.teardown(id).unwrap();
            prop_assert_eq!(state.check_invariants(), Ok(()));
        }
        prop_assert_eq!(state.wavelength_utilization(), 0.0);
        prop_assert_eq!(state.lightpath_count(), 0);
    }
}

#[test]
fn sanity_establish_route_on_spine_leaf() {
    let topo = Arc::new(builders::spine_leaf(2, 4, 2, true, 400.0));
    let servers = topo.servers();
    let mut state = OpticalState::new(Arc::clone(&topo));
    let path = algo::shortest_path(&topo, servers[0], servers[7], algo::hop_weight).unwrap();
    let ids = establish_route(&mut state, &path).unwrap();
    assert!(!ids.is_empty());
}

/// A topology mix matching the paper's scenarios: metro rings of varying
/// size and spine-leaf fabrics of varying radix.
fn scenario_topology(pick: u8) -> Arc<flexsched_topo::Topology> {
    Arc::new(match pick % 4 {
        0 => builders::metro(&builders::MetroParams::default()),
        1 => builders::metro(&builders::MetroParams {
            core_roadms: 8,
            core_wavelengths: 4,
            servers_per_router: 2,
            chords: 3,
            ..builders::MetroParams::default()
        }),
        2 => builders::spine_leaf(2, 4, 2, true, 400.0),
        _ => builders::spine_leaf(3, 5, 3, true, 800.0),
    })
}

/// The scalar reference implementation of the continuity intersection: one
/// `is_free` probe per (wavelength, hop), exactly the pre-bitset loop.
fn scalar_free_wavelengths(state: &OpticalState, path: &Path) -> Vec<WavelengthId> {
    if path.links.is_empty() {
        return Vec::new();
    }
    let mut grid = u16::MAX;
    for l in &path.links {
        grid = grid.min(state.topo().link(*l).unwrap().wavelengths.max(1));
    }
    (0..grid)
        .map(WavelengthId)
        .filter(|w| path.links.iter().all(|l| state.is_free(*l, *w).unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The word-parallel bitset continuity intersection must agree with the
    /// scalar per-wavelength reference on every reachable server pair, under
    /// any interleaving of establishments, teardowns and impairments, on
    /// metro and spine-leaf topologies alike.
    #[test]
    fn bitset_free_wavelengths_match_scalar_reference(
        topo_pick in 0u8..4,
        ops in proptest::collection::vec((0u8..3, 0usize..100, 0u16..8), 1..50),
        probes in proptest::collection::vec((0usize..100, 0usize..100), 1..8),
    ) {
        let topo = scenario_topology(topo_pick);
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        let mut live: Vec<LightpathId> = Vec::new();

        for (op, pick, w) in ops {
            match op {
                0 => {
                    let a = servers[pick % servers.len()];
                    let b = servers[(pick / 7 + 1) % servers.len()];
                    if a == b { continue; }
                    let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
                    if let Ok(ids) = establish_route(&mut state, &path) {
                        live.extend(ids);
                    }
                }
                1 if !live.is_empty() => {
                    let id = live.swap_remove(pick % live.len());
                    state.teardown(id).unwrap();
                }
                _ => {
                    let link = flexsched_topo::LinkId((pick % topo.link_count()) as u32);
                    let grid = topo.link(link).unwrap().wavelengths.max(1);
                    let wid = WavelengthId(w % grid);
                    state.set_impaired(link, wid, pick % 2 == 0).unwrap();
                }
            }
            prop_assert_eq!(state.check_invariants(), Ok(()));
        }

        for (i, j) in probes {
            let a = servers[i % servers.len()];
            let b = servers[j % servers.len()];
            if a == b { continue; }
            let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
            let mask = state.free_mask_on_path(&path).unwrap();
            let bitset: Vec<WavelengthId> = (0..mask.len() * 64)
                .filter(|w| mask[w / 64] >> (w % 64) & 1 == 1)
                .map(|w| WavelengthId(w as u16))
                .collect();
            prop_assert_eq!(
                bitset,
                scalar_free_wavelengths(&state, &path),
                "bitset and scalar disagree on {}", path
            );
        }
    }

    /// choose_wavelength must pick the lowest index of the scalar
    /// continuity set (first fit) on every optical segment, and fail
    /// exactly when that set is empty.
    #[test]
    fn choose_wavelength_matches_scalar_policy_semantics(
        topo_pick in 0u8..4,
        ops in proptest::collection::vec((0u8..4, 0usize..100), 1..30),
        probe in 0usize..100,
        probe2 in 0usize..100,
    ) {
        let topo = scenario_topology(topo_pick);
        let servers = topo.servers();
        let mut state = OpticalState::new(Arc::clone(&topo));
        for (impair, pick) in ops {
            let a = servers[pick % servers.len()];
            let b = servers[(pick / 3 + 1) % servers.len()];
            if a == b { continue; }
            let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
            let _ = establish_route(&mut state, &path);
            // One step in four impairs the next first-fit wavelength on one
            // hop, so later continuity sets have gaps below their top.
            if impair == 0 {
                let link = path.links[pick % path.links.len()];
                let hop = flexsched_topo::Path::new(
                    topo.link(link).map(|l| vec![l.a, l.b]).unwrap(),
                    vec![link],
                ).unwrap();
                if let Ok(w) = state.choose_wavelength(&hop) {
                    state.set_impaired(link, w, true).unwrap();
                }
            }
            prop_assert_eq!(state.check_invariants(), Ok(()));
        }
        let a = servers[probe % servers.len()];
        let b = servers[probe2 % servers.len()];
        prop_assume!(a != b);
        let path = algo::shortest_path(&topo, a, b, algo::latency_weight).unwrap();
        for segment in split_at_electrical(&topo, &path).unwrap() {
            match scalar_free_wavelengths(&state, &segment).first() {
                Some(w) => prop_assert_eq!(state.choose_wavelength(&segment).unwrap(), *w),
                None => prop_assert!(state.choose_wavelength(&segment).is_err()),
            }
        }
    }
}
