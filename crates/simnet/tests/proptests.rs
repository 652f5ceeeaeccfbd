//! Property-based tests for the simulator substrate.

use flexsched_simnet::{
    transfer::TransferSpec, transfer_time_ns, DirLink, NetworkState, SimTime, Transport,
};
use flexsched_topo::{algo, builders, Direction, LinkId, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Residual capacity never goes negative and never exceeds link
    /// capacity, under any interleaving of reserve/release/background ops.
    #[test]
    fn residual_stays_in_bounds(
        ops in proptest::collection::vec((0u8..4, 0.0f64..60.0), 1..100)
    ) {
        let topo = Arc::new(builders::linear(2, 1.0, 100.0));
        let mut s = NetworkState::new(topo);
        let dl = DirLink::new(LinkId(0), Direction::AtoB);
        let mut reserved = 0.0f64;
        for (op, amt) in ops {
            match op {
                0 => {
                    if s.reserve(dl, amt).is_ok() {
                        reserved += amt;
                    }
                }
                1 => {
                    if s.release(dl, amt).is_ok() {
                        reserved -= amt;
                    }
                }
                2 => { s.add_background(dl, amt).unwrap(); }
                _ => { s.add_background(dl, -amt).unwrap(); }
            }
            let r = s.residual_gbps(dl).unwrap();
            prop_assert!(r >= -1e-9, "negative residual {r}");
            prop_assert!(r <= 100.0 + 1e-9, "residual above capacity {r}");
            prop_assert!((s.usage(dl).unwrap().reserved_gbps - reserved).abs() < 1e-6);
        }
    }

    /// A path's reservation (`reserve_all`) either reserves every hop or
    /// none.
    #[test]
    fn path_reservation_is_atomic(
        prefill in 0.0f64..100.0,
        ask in 0.1f64..50.0,
    ) {
        let topo = Arc::new(builders::linear(5, 1.0, 100.0));
        let mut s = NetworkState::new(Arc::clone(&topo));
        // Prefill the middle link.
        s.add_background(DirLink::new(LinkId(2), Direction::AtoB), prefill).unwrap();
        let path = algo::shortest_path(&topo, NodeId(0), NodeId(4), algo::hop_weight).unwrap();
        let before = s.total_reserved_gbps();
        // The linear fabric's links run from lower to higher node ids.
        let res = s.reserve_all(
            path.links.iter().map(|l| (DirLink::new(*l, Direction::AtoB), ask)),
        );
        let after = s.total_reserved_gbps();
        if res.is_ok() {
            prop_assert!((after - before - ask * 4.0).abs() < 1e-6);
        } else {
            prop_assert!((after - before).abs() < 1e-9, "partial reservation leaked");
        }
    }

    /// Transfer time increases with payload and decreases with bandwidth.
    #[test]
    fn transfer_time_monotonicity(
        size in 1u64..(64 << 20),
        bw_lo in 1.0f64..20.0,
        bw_delta in 1.0f64..80.0,
    ) {
        let topo = Arc::new(builders::linear(3, 5.0, 200.0));
        let s = NetworkState::new(Arc::clone(&topo));
        let path = algo::shortest_path(&topo, NodeId(0), NodeId(2), algo::hop_weight).unwrap();
        let t = Transport::ideal();
        let time = |bytes: u64, bw: f64| {
            transfer_time_ns(&s, &TransferSpec {
                path: &path,
                size_bytes: bytes,
                reserved_gbps: bw,
                transport: &t,
            }).unwrap()
        };
        prop_assert!(time(size, bw_lo) >= time(size / 2 + 1, bw_lo));
        prop_assert!(time(size, bw_lo + bw_delta) <= time(size, bw_lo));
    }

    /// Effective goodput never exceeds the reservation nor the window bound.
    #[test]
    fn goodput_respects_ceilings(
        reserved in 0.1f64..400.0,
        rtt_us in 1u64..100_000,
    ) {
        for t in [Transport::tcp(), Transport::rdma(), Transport::ideal()] {
            let rtt = SimTime::from_us(rtt_us);
            let g = t.effective_goodput_gbps(reserved, rtt);
            prop_assert!(g <= reserved + 1e-9, "{} exceeded reservation", t.name);
            prop_assert!(g <= t.window_ceiling_gbps(rtt) + 1e-9);
            prop_assert!(g > 0.0);
        }
    }

    /// Spawning then retiring all background flows returns the network to
    /// exactly zero background load.
    #[test]
    fn traffic_spawn_retire_conserves(seed in 0u64..5_000, n in 1usize..40) {
        use flexsched_simnet::traffic::{TrafficConfig, TrafficGenerator};
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let mut state = NetworkState::new(Arc::clone(&topo));
        let mut g = TrafficGenerator::new(
            TrafficConfig { seed, ..TrafficConfig::default() },
            Arc::clone(&topo),
        );
        let background = |state: &NetworkState| -> f64 {
            let dirs = [Direction::AtoB, Direction::BtoA];
            let all = topo.link_ids().flat_map(|l| dirs.map(|d| DirLink::new(l, d)));
            all.map(|dl| state.usage(dl).unwrap().background_gbps).sum()
        };
        let mut ids = Vec::new();
        for _ in 0..n {
            ids.push(g.spawn_flow(&mut state).unwrap().id);
        }
        prop_assert!(background(&state) > 0.0);
        for id in &ids {
            g.retire_flow(&mut state, *id).unwrap();
        }
        prop_assert!(background(&state).abs() < 1e-6);
        // No flow is left to retire.
        for id in ids {
            prop_assert!(g.retire_flow(&mut state, id).is_err());
        }
    }
}
