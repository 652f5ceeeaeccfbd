//! End-to-end completion time for a model-weight transfer over a path.
//!
//! The latency model mirrors what the testbed would measure for one flow:
//!
//! ```text
//! total = transport setup
//!       + serialization (wire bytes / effective goodput)
//!       + propagation + per-node switching (path latency)
//!       + per-hop queuing (utilization-dependent M/M/1-style term)
//!       + host CPU packet processing not overlapped with the wire
//! ```
//!
//! Serialization and CPU work are pipelined: the model charges the slower of
//! the two (via the CPU ceiling inside the transport's effective goodput)
//! rather than their sum, and adds only the residual per-packet latency of
//! the first/last packet at the hosts.

use crate::state::{DirLink, NetworkState};
use crate::time::SimTime;
use crate::transport::Transport;
use crate::Result;
use flexsched_topo::Path;

/// Base queuing delay quantum per hop at 50% utilization, nanoseconds.
/// Scaled by `u / (1 - u)` and capped at [`MAX_QUEUE_NS`] per hop.
const BASE_QUEUE_NS: f64 = 1_500.0;

/// Per-hop queuing delay cap (a deep-buffer switch worth of delay).
const MAX_QUEUE_NS: f64 = 250_000.0;

/// A single flow transfer to be timed.
#[derive(Debug, Clone)]
pub struct TransferSpec<'a> {
    /// Route the flow takes.
    pub path: &'a Path,
    /// Payload size in bytes (the model update / global weights).
    pub size_bytes: u64,
    /// Bandwidth reserved for this flow along the path, Gbit/s.
    pub reserved_gbps: f64,
    /// Transport protocol model.
    pub transport: &'a Transport,
}

/// Utilization-dependent queuing delay for one directed hop, nanoseconds.
pub(crate) fn hop_queue_ns(state: &NetworkState, dl: DirLink) -> Result<f64> {
    let u = state.utilization(dl)?;
    if u >= 1.0 {
        return Ok(MAX_QUEUE_NS);
    }
    Ok((BASE_QUEUE_NS * u / (1.0 - u)).min(MAX_QUEUE_NS))
}

/// Sum of queuing delays along `path` in its travel direction, nanoseconds.
pub(crate) fn path_queue_ns(state: &NetworkState, path: &Path) -> Result<f64> {
    let mut total = 0.0;
    for (i, l) in path.links.iter().enumerate() {
        let link = state.topo().link(*l)?;
        let dir = link
            .direction_from(path.nodes[i])
            .ok_or(flexsched_topo::TopoError::UnknownLink(*l))?;
        total += hop_queue_ns(state, DirLink::new(*l, dir))?;
    }
    Ok(total)
}

/// Completion time for a single transfer, given current network state.
///
/// A trivial (same-node) path completes in the transport setup time plus the
/// local CPU cost — weights moving inside one server still cost a memcpy.
pub fn transfer_time_ns(state: &NetworkState, spec: &TransferSpec<'_>) -> Result<SimTime> {
    let transport = spec.transport;
    if spec.path.hop_count() == 0 {
        // Loopback: setup + one-sided CPU cost only.
        let cpu = transport.cpu_time_for(spec.size_bytes);
        return Ok(transport.setup + SimTime::from_ns(cpu.as_ns() / 2));
    }

    // One latency walk serves both the round trip and the propagation term.
    let one_way_ns = spec.path.latency_ns(state.topo())?;
    let rtt = SimTime::from_ns(one_way_ns * 2);
    let goodput = transport.effective_goodput_gbps(spec.reserved_gbps, rtt);
    debug_assert!(goodput > 0.0, "reserved rate must be positive");
    let wire_payload_bits = spec.size_bytes as f64 * 8.0;
    // Serialization at goodput already accounts for headers/retx/cpu/window.
    let serialization_ns = wire_payload_bits / goodput.max(1e-9);

    let propagation_ns = one_way_ns as f64;
    let queue_ns = path_queue_ns(state, spec.path)?;
    // Residual unpipelined host cost: one packet each at sender and receiver.
    let edge_cpu_ns = transport.cpu_ns_per_packet * 2.0;

    let total =
        transport.setup.as_ns() as f64 + serialization_ns + propagation_ns + queue_ns + edge_cpu_ns;
    Ok(SimTime::from_ns(total.round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::{algo, builders, NodeId};
    use std::sync::Arc;

    fn setup() -> (NetworkState, Path) {
        let topo = Arc::new(builders::linear(3, 10.0, 100.0));
        let path = algo::shortest_path(&topo, NodeId(0), NodeId(2), algo::hop_weight).unwrap();
        (NetworkState::new(topo), path)
    }

    #[test]
    fn bigger_payloads_take_longer() {
        let (state, path) = setup();
        let t = Transport::tcp();
        let small = transfer_time_ns(
            &state,
            &TransferSpec {
                path: &path,
                size_bytes: 1 << 20,
                reserved_gbps: 10.0,
                transport: &t,
            },
        )
        .unwrap();
        let large = transfer_time_ns(
            &state,
            &TransferSpec {
                path: &path,
                size_bytes: 32 << 20,
                reserved_gbps: 10.0,
                transport: &t,
            },
        )
        .unwrap();
        assert!(large > small);
    }

    #[test]
    fn more_bandwidth_is_faster() {
        let (state, path) = setup();
        let t = Transport::ideal();
        let slow = transfer_time_ns(
            &state,
            &TransferSpec {
                path: &path,
                size_bytes: 8 << 20,
                reserved_gbps: 1.0,
                transport: &t,
            },
        )
        .unwrap();
        let fast = transfer_time_ns(
            &state,
            &TransferSpec {
                path: &path,
                size_bytes: 8 << 20,
                reserved_gbps: 50.0,
                transport: &t,
            },
        )
        .unwrap();
        assert!(fast < slow);
        // 8 MiB over 1 Gbps is ~67 ms; over 50 Gbps ~1.3 ms.
        assert!(slow.as_ms_f64() > 50.0);
        assert!(fast.as_ms_f64() < 5.0);
    }

    #[test]
    fn ideal_matches_hand_computation() {
        let (state, path) = setup();
        let t = Transport::ideal();
        let got = transfer_time_ns(
            &state,
            &TransferSpec {
                path: &path,
                size_bytes: 1_250_000, // 10 Mbit
                reserved_gbps: 10.0,
                transport: &t,
            },
        )
        .unwrap();
        // serialization = 10 Mbit / 10 Gbps = 1 ms; propagation = 2 hops *
        // (50us + 2us switch) = 104 us; queue = 0 on idle network.
        let expect_ns = 1_000_000.0 + 104_000.0;
        assert!(
            (got.as_ns() as f64 - expect_ns).abs() < 1_000.0,
            "got {got}, expected ~{expect_ns}ns"
        );
    }

    #[test]
    fn queuing_grows_with_background_load() {
        let (mut state, path) = setup();
        let t = Transport::ideal();
        let spec = |s: &NetworkState| {
            transfer_time_ns(
                s,
                &TransferSpec {
                    path: &path,
                    size_bytes: 1 << 20,
                    reserved_gbps: 10.0,
                    transport: &t,
                },
            )
            .unwrap()
        };
        let idle = spec(&state);
        state
            .add_background(
                DirLink::new(flexsched_topo::LinkId(0), flexsched_topo::Direction::AtoB),
                90.0,
            )
            .unwrap();
        let busy = spec(&state);
        assert!(busy > idle, "busy={busy} idle={idle}");
    }

    #[test]
    fn tcp_slower_than_rdma_in_metro() {
        let (state, path) = setup();
        let mk = |tr: &Transport| {
            transfer_time_ns(
                &state,
                &TransferSpec {
                    path: &path,
                    size_bytes: 16 << 20,
                    reserved_gbps: 100.0,
                    transport: tr,
                },
            )
            .unwrap()
        };
        let tcp = mk(&Transport::tcp());
        let rdma = mk(&Transport::rdma());
        assert!(
            rdma < tcp,
            "metro RDMA should beat kernel TCP: rdma={rdma} tcp={tcp}"
        );
    }

    #[test]
    fn rdma_loses_over_long_haul() {
        // 2000 km span: RTT 20 ms, RDMA window-collapses.
        let topo = Arc::new(builders::linear(2, 2_000.0, 100.0));
        let path = algo::shortest_path(&topo, NodeId(0), NodeId(1), algo::hop_weight).unwrap();
        let state = NetworkState::new(topo);
        let mk = |tr: &Transport| {
            transfer_time_ns(
                &state,
                &TransferSpec {
                    path: &path,
                    size_bytes: 64 << 20,
                    reserved_gbps: 100.0,
                    transport: tr,
                },
            )
            .unwrap()
        };
        let tcp = mk(&Transport::tcp());
        let rdma = mk(&Transport::rdma());
        assert!(
            rdma > tcp,
            "long-haul RDMA should degrade below TCP: rdma={rdma} tcp={tcp}"
        );
    }

    #[test]
    fn loopback_costs_setup_plus_cpu() {
        let (state, _) = setup();
        let path = Path::trivial(NodeId(0));
        let t = Transport::tcp();
        let got = transfer_time_ns(
            &state,
            &TransferSpec {
                path: &path,
                size_bytes: 1 << 20,
                reserved_gbps: 10.0,
                transport: &t,
            },
        )
        .unwrap();
        assert!(got >= t.setup);
        assert!(
            got.as_ms_f64() < 2.0,
            "loopback should be sub-ms-ish: {got}"
        );
    }
}
