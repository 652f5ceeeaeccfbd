//! Auxiliary-graph link weights.
//!
//! The poster: "We initialize each link of the broadcast/upload graphs
//! according to bandwidth consumption and latency (if AI tasks pass through
//! the link)". Concretely:
//!
//! * the **bandwidth term** charges the fraction of the link's residual
//!   capacity the task's demand would consume (scarce links are expensive,
//!   and a link *already carrying this task* costs nothing more — the reuse
//!   discount that makes trees share segments),
//! * the **latency term** charges the hop's propagation + switching delay,
//!   normalised to a metro-scale hop, plus a congestion-dependent queuing
//!   estimate,
//! * the **wavelength-headroom term** (when an optical view is attached)
//!   charges spectral scarcity: links whose continuity set has few free
//!   wavelengths cost more, so trees prefer fibers with headroom instead of
//!   treating feasibility as a binary cliff,
//! * unusable links (down, no residual, or — when an optical view is
//!   attached — no free wavelength and no groomable lightpath) weigh
//!   `f64::INFINITY`.
//!
//! All inputs come from the immutable [`NetworkSnapshot`]: weight
//! evaluation is read-only and thread-safe by construction.

use crate::snapshot::NetworkSnapshot;
use flexsched_topo::{Link, LinkId};

/// Relative importance of the bandwidth-consumption term.
pub(crate) const ALPHA_BANDWIDTH: f64 = 1.0;

/// Relative importance of the latency term.
pub(crate) const BETA_LATENCY: f64 = 1.0;

/// Default relative importance of the wavelength-headroom term: a fully
/// spectrally-loaded fiber costs this much extra weight versus an empty
/// one. Comparable to a fraction of a typical latency/bandwidth term, so
/// headroom steers ties and near-ties without overriding genuinely shorter
/// or emptier routes.
pub(crate) const GAMMA_WAVELENGTH: f64 = 0.25;

/// Latency normalisation: one "unit" of latency cost per this many ns
/// (a 10 km metro hop plus router transit ≈ 52 µs).
const LATENCY_UNIT_NS: f64 = 52_000.0;

/// Weight of a link in the auxiliary graph of one procedure.
///
/// `reused` holds the links already carrying this task (e.g. the other
/// procedure's tree, or the previous schedule during rescheduling),
/// ascending, so a tree's own [`links`](flexsched_topo::algo::SteinerTree::links)
/// serve as it; their bandwidth term is zero. `wavelength_headroom`
/// scales the spectral-scarcity term (zero reproduces the poster's binary
/// feasibility exactly; `GAMMA_WAVELENGTH` is the recommended default).
///
/// # Panics
/// In debug builds, if `reused` is not sorted.
pub fn auxiliary_weight(
    snap: &NetworkSnapshot,
    demand_gbps: f64,
    reused: &[LinkId],
    link: &Link,
    wavelength_headroom: f64,
) -> f64 {
    debug_assert!(reused.is_sorted(), "the reuse set must be ascending");
    let reused = reused.binary_search(&link.id).is_ok();
    let net = snap.net();
    if net.is_down(link.id) {
        return f64::INFINITY;
    }
    let residual = net.residual_min_gbps(link.id);
    // A link with no residual is unusable — unless the task itself already
    // occupies it: during rescheduling the previous schedule's reservations
    // are freed at migration time, so its own links stay routable (their
    // bandwidth term is zero below; congestion still shows in the queue
    // penalty). Foreign saturation keeps pricing at infinity.
    if residual <= 0.0 && !reused {
        return f64::INFINITY;
    }
    // Wavelength feasibility and headroom: a link is usable if a new
    // lightpath can be lit on it *or* an established lightpath crossing it
    // still has groomable capacity for this demand. Reused links already
    // carry one. The free-wavelength count (one popcount pass over the
    // bitset RWA words) doubles as the continuity-set headroom.
    let mut headroom_term = 0.0;
    if let Some(opt) = snap.optical() {
        if !reused {
            let free = opt.free_wavelength_count(link.id).unwrap_or(0);
            if free == 0 && !opt.groomable_across(link.id, demand_gbps) {
                return f64::INFINITY;
            }
            let grid = f64::from(link.wavelengths.max(1));
            headroom_term = wavelength_headroom * (1.0 - f64::from(free) / grid);
        }
    }

    let bandwidth_term = if reused {
        0.0
    } else {
        // Demand as a fraction of residual: cheap on empty links, expensive
        // as the link approaches saturation.
        (demand_gbps / residual).min(100.0)
    };
    let latency_ns = link.propagation_ns() as f64;
    let utilization = 1.0 - (residual / link.capacity_gbps.max(1e-9)).clamp(0.0, 1.0);
    let queue_penalty = if utilization < 1.0 {
        utilization / (1.0 - utilization)
    } else {
        100.0
    }
    .min(100.0);
    let latency_term = latency_ns / LATENCY_UNIT_NS + 0.1 * queue_penalty;

    ALPHA_BANDWIDTH * bandwidth_term + BETA_LATENCY * latency_term + headroom_term
}

/// Weight used by the fixed SPFF baseline: pure latency shortest path,
/// infinite when the link is down or has no residual capacity at all. The
/// baseline deliberately ignores bandwidth consumption — that is what makes
/// it "fixed".
pub(crate) fn spff_weight(snap: &NetworkSnapshot, link: &Link) -> f64 {
    let net = snap.net();
    if net.is_down(link.id) || net.residual_min_gbps(link.id) <= 0.0 {
        return f64::INFINITY;
    }
    link.propagation_ns() as f64 + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_simnet::{DirLink, NetworkState};
    use flexsched_topo::{builders, Direction};
    use std::sync::Arc;

    fn rig() -> NetworkState {
        NetworkState::new(Arc::new(builders::linear(3, 10.0, 100.0)))
    }

    fn link0(state: &NetworkState) -> Link {
        state.topo().link(LinkId(0)).unwrap().clone()
    }

    fn snap(state: &NetworkState) -> NetworkSnapshot {
        NetworkSnapshot::capture(state)
    }

    #[test]
    fn reused_links_have_no_bandwidth_cost() {
        let state = rig();
        let l = link0(&state);
        let s = snap(&state);
        let fresh = auxiliary_weight(&s, 50.0, &[], &l, 0.0);
        let cheap = auxiliary_weight(&s, 50.0, &[LinkId(0)], &l, 0.0);
        assert!(cheap < fresh, "reuse discount missing: {cheap} !< {fresh}");
    }

    #[test]
    fn scarcer_links_cost_more() {
        let mut state = rig();
        let l = link0(&state);
        let idle = auxiliary_weight(&snap(&state), 20.0, &[], &l, 0.0);
        state
            .add_background(DirLink::new(LinkId(0), Direction::AtoB), 70.0)
            .unwrap();
        let busy = auxiliary_weight(&snap(&state), 20.0, &[], &l, 0.0);
        assert!(busy > idle);
    }

    #[test]
    fn saturated_links_are_unusable() {
        let mut state = rig();
        let l = link0(&state);
        state
            .add_background(DirLink::new(LinkId(0), Direction::AtoB), 100.0)
            .unwrap();
        assert_eq!(
            auxiliary_weight(&snap(&state), 1.0, &[], &l, 0.0),
            f64::INFINITY
        );
    }

    #[test]
    fn down_links_are_unusable_for_both_weights() {
        let mut state = rig();
        let l = link0(&state);
        state.set_down(LinkId(0), true).unwrap();
        let s = snap(&state);
        assert_eq!(auxiliary_weight(&s, 1.0, &[], &l, 0.0), f64::INFINITY);
        assert_eq!(spff_weight(&s, &l), f64::INFINITY);
    }

    #[test]
    fn spff_weight_tracks_latency_only() {
        let mut topo = flexsched_topo::Topology::new();
        let a = topo.add_node(flexsched_topo::NodeKind::IpRouter, "a");
        let b = topo.add_node(flexsched_topo::NodeKind::IpRouter, "b");
        let short = topo.add_link(a, b, 1.0, 10.0).unwrap();
        let long = topo.add_link(a, b, 50.0, 400.0).unwrap();
        let state = NetworkState::new(Arc::new(topo));
        let s = snap(&state);
        let ws = spff_weight(&s, state.topo().link(short).unwrap());
        let wl = spff_weight(&s, state.topo().link(long).unwrap());
        assert!(ws < wl, "capacity must not matter to SPFF: {ws} {wl}");
    }

    #[test]
    fn wavelength_exhaustion_blocks_new_links_only() {
        use flexsched_optical::OpticalState;
        let mut topo = flexsched_topo::Topology::new();
        let a = topo.add_node(flexsched_topo::NodeKind::Roadm, "a");
        let b = topo.add_node(flexsched_topo::NodeKind::Roadm, "b");
        topo.add_wdm_link(a, b, 10.0, 100.0, 1).unwrap();
        let topo = Arc::new(topo);
        let state = NetworkState::new(Arc::clone(&topo));
        let mut opt = OpticalState::new(Arc::clone(&topo));
        let p = flexsched_topo::algo::shortest_path(&topo, a, b, flexsched_topo::algo::hop_weight)
            .unwrap();
        opt.establish(p).unwrap();
        let l = state.topo().link(LinkId(0)).unwrap().clone();
        let s = NetworkSnapshot::capture(&state).with_optical(&opt);
        // Demand exceeding the occupied lightpath's residual: unusable.
        let fresh = auxiliary_weight(&s, 500.0, &[], &l, 0.0);
        assert_eq!(fresh, f64::INFINITY, "no free wavelength -> unusable");
        // A small demand fits the established lightpath's residual: usable.
        let groomed = auxiliary_weight(&s, 1.0, &[], &l, 0.0);
        assert!(groomed.is_finite(), "groomable lightpath keeps link usable");
        let re = auxiliary_weight(&s, 1.0, &[LinkId(0)], &l, 0.0);
        assert!(re.is_finite(), "reused link keeps its lightpath");
    }

    #[test]
    fn wavelength_headroom_prices_spectral_scarcity() {
        use flexsched_optical::OpticalState;
        // Two parallel 4-wavelength fibers; one gets 3 of 4 slots occupied.
        let mut topo = flexsched_topo::Topology::new();
        let a = topo.add_node(flexsched_topo::NodeKind::Roadm, "a");
        let b = topo.add_node(flexsched_topo::NodeKind::Roadm, "b");
        let crowded = topo.add_wdm_link(a, b, 10.0, 400.0, 4).unwrap();
        let empty = topo.add_wdm_link(a, b, 10.0, 400.0, 4).unwrap();
        let topo = Arc::new(topo);
        let state = NetworkState::new(Arc::clone(&topo));
        let mut opt = OpticalState::new(Arc::clone(&topo));
        let hop = flexsched_topo::Path::new(vec![a, b], vec![crowded]).unwrap();
        for _ in 0..3 {
            opt.establish(hop.clone()).unwrap();
        }
        let s = NetworkSnapshot::capture(&state).with_optical(&opt);
        let none: [LinkId; 0] = [];
        let lc = state.topo().link(crowded).unwrap().clone();
        let le = state.topo().link(empty).unwrap().clone();
        // Binary feasibility (gamma 0): both usable, same weight.
        let wc0 = auxiliary_weight(&s, 1.0, &none, &lc, 0.0);
        let we0 = auxiliary_weight(&s, 1.0, &none, &le, 0.0);
        assert!((wc0 - we0).abs() < 1e-12, "gamma=0 must ignore headroom");
        // Headroom-aware: the crowded fiber costs more.
        let wc = auxiliary_weight(&s, 1.0, &none, &lc, GAMMA_WAVELENGTH);
        let we = auxiliary_weight(&s, 1.0, &none, &le, GAMMA_WAVELENGTH);
        assert!(wc > we, "crowded {wc} !> empty {we}");
        // 3/4 occupied vs 0/4: the difference is gamma * 3/4.
        assert!((wc - we - GAMMA_WAVELENGTH * 0.75).abs() < 1e-12);
    }

    /// The reuse set is searched by bisection, so an unsorted one would
    /// misprice silently; debug builds refuse it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the reuse set must be ascending")]
    fn an_unsorted_reuse_slice_trips_the_assert() {
        let state = rig();
        let l = link0(&state);
        auxiliary_weight(&snap(&state), 1.0, &[LinkId(1), LinkId(0)], &l, 0.0);
    }

    #[test]
    fn headroom_ignored_without_optical_view() {
        let state = rig();
        let l = link0(&state);
        let s = snap(&state);
        let a = auxiliary_weight(&s, 1.0, &[], &l, 0.0);
        let b = auxiliary_weight(&s, 1.0, &[], &l, GAMMA_WAVELENGTH);
        assert_eq!(a, b);
    }
}
