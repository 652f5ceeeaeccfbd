//! Transport models: TCP/IP vs RDMA (poster open challenge #2).
//!
//! The poster observes that "TCP/IP protocols consume a lot of CPU resources
//! and packet heads, which reduces communication/training efficiency", and
//! that RDMA needs near-zero loss and degrades over long distances. The
//! [`Transport`] model captures those effects at flow level:
//!
//! * **header overhead** inflates the bytes on the wire,
//! * **per-packet CPU cost** caps the achievable rate at the end hosts
//!   (`mss * 8 / cpu_ns_per_packet`),
//! * **loss** inflates transfer volume by the expected retransmission factor
//!   (`1 / (1 - loss)` for selective repeat; RDMA's go-back-N style recovery
//!   is modelled with a configurable burst penalty),
//! * **window limit** caps throughput at `window * 8 / RTT` — this is what
//!   makes naive RDMA collapse over long-distance links.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Flow-level transport model parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transport {
    /// Human-readable name (appears in reports).
    pub name: &'static str,
    /// Maximum segment size, bytes of payload per packet.
    pub mss_bytes: u32,
    /// Protocol header bytes per packet (wire overhead).
    pub header_bytes: u32,
    /// Host CPU time consumed per packet, nanoseconds. Limits throughput to
    /// `mss * 8 / cpu_ns_per_packet` Gbit/s-equivalent.
    pub cpu_ns_per_packet: f64,
    /// Packet loss probability in `[0, 1)`.
    pub loss_rate: f64,
    /// Retransmission volume multiplier applied per lost packet: selective
    /// repeat resends 1 packet (factor 1.0); go-back-N style recovery resends
    /// a burst (factor > 1).
    pub retx_burst_factor: f64,
    /// End-to-end flow/window credit in bytes; caps throughput at
    /// `window * 8 / RTT`. `u32::MAX` means effectively unlimited.
    pub window_bytes: u32,
    /// One-time connection/queue-pair setup latency.
    pub setup: SimTime,
}

impl Transport {
    /// Kernel TCP/IP: 40 B headers on 1460 B segments, heavy per-packet CPU,
    /// tolerant of loss via selective retransmission, large windows.
    pub fn tcp() -> Self {
        Transport {
            name: "tcp",
            mss_bytes: 1_460,
            header_bytes: 40,
            cpu_ns_per_packet: 450.0, // ~26 Gbps single-flow kernel ceiling
            loss_rate: 1e-4,
            retx_burst_factor: 1.0,
            window_bytes: u32::MAX,
            setup: SimTime::from_us(80), // 3-way handshake + slow-start ramp
        }
    }

    /// RoCE-style RDMA: 4 KiB messages with small headers, near-zero CPU,
    /// requires a lossless fabric (PFC) so loss is tiny, but recovery is
    /// go-back-N and the queue-pair window is modest — the long-distance
    /// degradation the poster calls out.
    pub fn rdma() -> Self {
        Transport {
            name: "rdma",
            mss_bytes: 4_096,
            header_bytes: 58,
            cpu_ns_per_packet: 25.0, // NIC offload
            loss_rate: 1e-6,
            retx_burst_factor: 32.0, // go-back-N resends a window burst
            window_bytes: 16 * 1024 * 1024,
            setup: SimTime::from_us(10), // QP already established, rendezvous
        }
    }

    /// An idealised lossless, zero-overhead transport (upper bound used in
    /// ablations).
    pub fn ideal() -> Self {
        Transport {
            name: "ideal",
            mss_bytes: 9_000,
            header_bytes: 0,
            cpu_ns_per_packet: 0.0,
            loss_rate: 0.0,
            retx_burst_factor: 1.0,
            window_bytes: u32::MAX,
            setup: SimTime::ZERO,
        }
    }

    /// Number of packets needed for `bytes` of payload.
    pub(crate) fn packets_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(u64::from(self.mss_bytes.max(1)))
    }

    /// Expected transmission-volume multiplier from loss recovery.
    pub(crate) fn retx_factor(&self) -> f64 {
        // Each packet is lost with p; each loss triggers retx_burst_factor
        // extra packets (themselves subject to loss, geometric series).
        let p = self.loss_rate.clamp(0.0, 0.999_999);
        1.0 / (1.0 - p * self.retx_burst_factor.max(1.0)).max(1e-6)
    }

    /// Host-CPU-limited throughput ceiling, Gbit/s.
    pub(crate) fn cpu_ceiling_gbps(&self) -> f64 {
        if self.cpu_ns_per_packet <= 0.0 {
            return f64::INFINITY;
        }
        f64::from(self.mss_bytes) * 8.0 / self.cpu_ns_per_packet
    }

    /// Window-limited throughput ceiling for a path with round-trip time
    /// `rtt`, Gbit/s.
    pub fn window_ceiling_gbps(&self, rtt: SimTime) -> f64 {
        if self.window_bytes == u32::MAX || rtt == SimTime::ZERO {
            return f64::INFINITY;
        }
        f64::from(self.window_bytes) * 8.0 / rtt.as_ns() as f64
    }

    /// Effective achievable goodput given a reserved path rate and RTT,
    /// Gbit/s: the minimum of the reservation, the CPU ceiling and the
    /// window ceiling, discounted by header overhead.
    pub fn effective_goodput_gbps(&self, reserved_gbps: f64, rtt: SimTime) -> f64 {
        let wire_rate = reserved_gbps
            .min(self.cpu_ceiling_gbps())
            .min(self.window_ceiling_gbps(rtt));
        let payload_frac =
            f64::from(self.mss_bytes) / f64::from(self.mss_bytes + self.header_bytes);
        wire_rate * payload_frac / self.retx_factor()
    }

    /// Total host CPU time consumed to move `bytes` (both ends), for the
    /// "TCP consumes a lot of CPU" comparison.
    pub fn cpu_time_for(&self, bytes: u64) -> SimTime {
        let ns = self.packets_for(bytes) as f64 * self.cpu_ns_per_packet * 2.0;
        SimTime::from_ns(ns.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_counts_round_up() {
        let t = Transport::tcp();
        assert_eq!(t.packets_for(0), 0);
        assert_eq!(t.packets_for(1), 1);
        assert_eq!(t.packets_for(1_460), 1);
        assert_eq!(t.packets_for(1_461), 2);
    }

    #[test]
    fn wire_bytes_exceed_payload() {
        // Headers and retransmissions put more bytes on the wire than the
        // payload, so goodput falls below the wire rate; the ideal
        // transport carries payload only.
        let rtt = SimTime::from_us(10);
        assert!(Transport::tcp().effective_goodput_gbps(1.0, rtt) < 1.0);
        assert!((Transport::ideal().effective_goodput_gbps(1.0, rtt) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tcp_cpu_ceiling_is_tens_of_gbps() {
        let ceil = Transport::tcp().cpu_ceiling_gbps();
        assert!(ceil > 10.0 && ceil < 100.0, "tcp cpu ceiling {ceil}");
    }

    #[test]
    fn rdma_cpu_ceiling_dwarfs_tcp() {
        assert!(Transport::rdma().cpu_ceiling_gbps() > 10.0 * Transport::tcp().cpu_ceiling_gbps());
    }

    #[test]
    fn rdma_window_collapses_over_long_rtt() {
        let r = Transport::rdma();
        let short = r.effective_goodput_gbps(100.0, SimTime::from_us(10));
        let long = r.effective_goodput_gbps(100.0, SimTime::from_ms(20));
        assert!(
            short > 50.0,
            "metro RDMA should run near line rate: {short}"
        );
        assert!(long < 10.0, "long-haul RDMA should collapse: {long}");
    }

    #[test]
    fn tcp_unaffected_by_rtt_with_big_windows() {
        let t = Transport::tcp();
        let short = t.effective_goodput_gbps(10.0, SimTime::from_us(10));
        let long = t.effective_goodput_gbps(10.0, SimTime::from_ms(20));
        assert!((short - long).abs() < 1e-6);
    }

    #[test]
    fn goodput_never_exceeds_reservation() {
        for t in [Transport::tcp(), Transport::rdma(), Transport::ideal()] {
            let g = t.effective_goodput_gbps(40.0, SimTime::from_us(50));
            assert!(g <= 40.0 + 1e-9, "{}: {g}", t.name);
        }
    }

    #[test]
    fn retx_factor_is_one_plus_epsilon() {
        assert!((Transport::ideal().retx_factor() - 1.0).abs() < 1e-12);
        let tcp = Transport::tcp().retx_factor();
        assert!(tcp > 1.0 && tcp < 1.01);
        let rdma = Transport::rdma().retx_factor();
        assert!(rdma > 1.0 && rdma < 1.01);
    }

    #[test]
    fn cpu_time_scales_with_bytes_and_protocol() {
        let mb = 1_000_000;
        let tcp = Transport::tcp().cpu_time_for(mb);
        let rdma = Transport::rdma().cpu_time_for(mb);
        assert!(tcp.as_ns() > 10 * rdma.as_ns(), "tcp={tcp} rdma={rdma}");
    }

    #[test]
    fn ideal_is_free() {
        let i = Transport::ideal();
        assert_eq!(i.cpu_time_for(1 << 20), SimTime::ZERO);
        assert_eq!(i.cpu_ceiling_gbps(), f64::INFINITY);
        assert_eq!(i.window_ceiling_gbps(SimTime::from_ms(100)), f64::INFINITY);
    }
}
