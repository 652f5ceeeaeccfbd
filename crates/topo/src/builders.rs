//! Canonical topology builders used by the evaluation and tests.
//!
//! All builders are deterministic; the random builder takes an explicit seed.
//! Capacities are per-direction Gbit/s; lengths are kilometres.

use crate::graph::Topology;
use crate::ids::NodeId;
use crate::node::NodeKind;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A linear chain of `n` IP routers: `r0 - r1 - ... - r(n-1)`.
///
/// # Panics
/// Panics if `n == 0`.
pub fn linear(n: usize, hop_km: f64, capacity_gbps: f64) -> Topology {
    assert!(n > 0, "linear topology needs at least one node");
    let mut t = Topology::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| t.add_node(NodeKind::IpRouter, format!("r{i}")))
        .collect();
    for w in ids.windows(2) {
        t.add_link(w[0], w[1], hop_km, capacity_gbps)
            .expect("chain endpoints exist");
    }
    t
}

/// Test fixture: [`linear`] closed into a cycle of `n >= 3` IP routers.
#[cfg(test)]
pub(crate) fn cycle(n: usize, hop_km: f64, capacity_gbps: f64) -> Topology {
    let mut t = linear(n, hop_km, capacity_gbps);
    t.add_link(NodeId(n as u32 - 1), NodeId(0), hop_km, capacity_gbps)
        .expect("cycle endpoints exist");
    t
}

/// A star: one central IP router with `leaves` servers attached.
///
/// # Panics
/// Panics if `leaves == 0`.
pub fn star(leaves: usize, spoke_km: f64, capacity_gbps: f64) -> Topology {
    assert!(leaves > 0, "star needs at least one leaf");
    let mut t = Topology::new();
    let hub = t.add_node(NodeKind::IpRouter, "hub");
    for i in 0..leaves {
        let s = t.add_node(NodeKind::Server, format!("s{i}"));
        t.add_link(hub, s, spoke_km, capacity_gbps)
            .expect("star endpoints exist");
    }
    t
}

/// Number of sites in the classic NSFNET reference backbone.
pub(crate) const NSFNET_SITES: usize = 14;

/// Classic NSFNET 14-node 21-link adjacency with representative span
/// lengths scaled to metro-ish kilometres (1/20 of the continental
/// distances so latencies remain in the paper's low-millisecond regime).
const NSFNET_SPANS: &[(usize, usize, f64)] = &[
    (0, 1, 54.0),
    (0, 2, 54.0),
    (0, 7, 144.0),
    (1, 2, 36.0),
    (1, 3, 54.0),
    (2, 5, 96.0),
    (3, 4, 36.0),
    (3, 10, 96.0),
    (4, 5, 48.0),
    (4, 6, 36.0),
    (5, 9, 84.0),
    (5, 13, 90.0),
    (6, 7, 36.0),
    (7, 8, 54.0),
    (8, 9, 36.0),
    (8, 11, 30.0),
    (8, 12, 30.0),
    (10, 11, 36.0),
    (10, 12, 42.0),
    (11, 13, 30.0),
    (12, 13, 30.0),
];

/// The 14-node NSFNET reference backbone (router nodes, span lengths scaled
/// to metro-ish kilometres at 1/20 of the classic continental distances so
/// latencies remain in the paper's low-millisecond regime). Each site is
/// its own region.
pub fn nsfnet() -> Topology {
    let mut t = Topology::new();
    let n: Vec<NodeId> = (0..NSFNET_SITES)
        .map(|i| {
            let id = t.add_node(NodeKind::IpRouter, format!("nsf{i}"));
            t.set_region(id, i as u32).expect("node just added");
            id
        })
        .collect();
    for &(a, b, km) in NSFNET_SPANS {
        t.add_wdm_link(n[a], n[b], km, 800.0, 8)
            .expect("nsfnet endpoints exist");
    }
    t
}

/// Parameters for the metro aggregation network that mirrors the paper's
/// ROADM + IP-router testbed (Figure 2).
#[derive(Debug, Clone)]
pub struct MetroParams {
    /// Number of ROADM nodes on the metro core ring.
    pub core_roadms: usize,
    /// Core ring span length between adjacent ROADMs, km.
    pub core_span_km: f64,
    /// Wavelengths per core fiber.
    pub core_wavelengths: u16,
    /// Per-wavelength rate, Gbit/s.
    pub wavelength_gbps: f64,
    /// Servers attached to each ROADM's co-located IP router.
    pub servers_per_router: usize,
    /// Access link length router->server, km.
    pub access_km: f64,
    /// Access link capacity, Gbit/s.
    pub access_gbps: f64,
    /// Number of chord (express) fibers across the ring for path diversity.
    pub chords: usize,
}

impl Default for MetroParams {
    fn default() -> Self {
        MetroParams {
            core_roadms: 6,
            core_span_km: 10.0,
            core_wavelengths: 8,
            wavelength_gbps: 100.0,
            servers_per_router: 4,
            access_km: 1.0,
            access_gbps: 100.0,
            chords: 2,
        }
    }
}

/// Build the metro testbed topology:
///
/// * `core_roadms` ROADMs in a WDM ring (plus optional chords),
/// * one IP router co-located with each ROADM (short grey link),
/// * `servers_per_router` servers per router.
///
/// Node ordering: ROADMs first, then routers, then servers, so id ranges are
/// easy to reason about in tests.
///
/// # Panics
/// Panics if `core_roadms < 3` or `servers_per_router == 0`.
pub fn metro(p: &MetroParams) -> Topology {
    assert!(p.core_roadms >= 3, "metro core needs at least 3 ROADMs");
    assert!(
        p.servers_per_router > 0,
        "need at least one server per router"
    );
    let mut t = Topology::new();
    let core_capacity = p.wavelength_gbps * f64::from(p.core_wavelengths);

    let roadms: Vec<NodeId> = (0..p.core_roadms)
        .map(|i| {
            let id = t.add_node(NodeKind::Roadm, format!("roadm{i}"));
            t.set_region(id, i as u32).expect("node just added");
            id
        })
        .collect();
    let routers: Vec<NodeId> = (0..p.core_roadms)
        .map(|i| {
            let id = t.add_node(NodeKind::IpRouter, format!("router{i}"));
            t.set_region(id, i as u32).expect("node just added");
            id
        })
        .collect();

    // Core ring.
    for i in 0..p.core_roadms {
        t.add_wdm_link(
            roadms[i],
            roadms[(i + 1) % p.core_roadms],
            p.core_span_km,
            core_capacity,
            p.core_wavelengths,
        )
        .expect("ring endpoints exist");
    }
    // Express chords: connect node i to i + n/2 (then rotate) for diversity.
    let half = p.core_roadms / 2;
    for c in 0..p.chords.min(half) {
        let a = c;
        let b = (c + half) % p.core_roadms;
        if a != b && t.find_link(roadms[a], roadms[b]).is_none() {
            t.add_wdm_link(
                roadms[a],
                roadms[b],
                p.core_span_km * half as f64 * 0.8,
                core_capacity,
                p.core_wavelengths,
            )
            .expect("chord endpoints exist");
        }
    }
    // Router <-> ROADM add/drop attachment: carries the full WDM grid (the
    // router's transponder bank feeds every add/drop port).
    for i in 0..p.core_roadms {
        t.add_wdm_link(
            routers[i],
            roadms[i],
            0.1,
            core_capacity,
            p.core_wavelengths,
        )
        .expect("attachment endpoints exist");
    }
    // Servers.
    for (i, router) in routers.iter().enumerate() {
        for s in 0..p.servers_per_router {
            let srv = t.add_node(NodeKind::Server, format!("server{i}_{s}"));
            t.set_region(srv, i as u32).expect("node just added");
            t.add_link(*router, srv, p.access_km, p.access_gbps)
                .expect("access endpoints exist");
        }
    }
    t
}

/// Build a two-tier spine-leaf fabric (all-optical if `optical` is true:
/// spine and leaf switches are ROADMs, else IP routers).
///
/// Every leaf connects to every spine; `servers_per_leaf` servers hang off
/// each leaf. Node ordering: spines, leaves, then servers.
///
/// # Panics
/// Panics if any dimension is zero.
pub fn spine_leaf(
    spines: usize,
    leaves: usize,
    servers_per_leaf: usize,
    optical: bool,
    link_gbps: f64,
) -> Topology {
    assert!(spines > 0 && leaves > 0 && servers_per_leaf > 0);
    let kind = if optical {
        NodeKind::Roadm
    } else {
        NodeKind::IpRouter
    };
    let mut t = Topology::new();
    let spine_ids: Vec<NodeId> = (0..spines)
        .map(|i| t.add_node(kind, format!("spine{i}")))
        .collect();
    let leaf_ids: Vec<NodeId> = (0..leaves)
        .map(|i| {
            let id = t.add_node(kind, format!("leaf{i}"));
            t.set_region(id, i as u32).expect("node just added");
            id
        })
        .collect();
    for l in &leaf_ids {
        for s in &spine_ids {
            t.add_wdm_link(*l, *s, 0.3, link_gbps, 4)
                .expect("fabric endpoints exist");
        }
    }
    for (i, l) in leaf_ids.iter().enumerate() {
        for s in 0..servers_per_leaf {
            let srv = t.add_node(NodeKind::Server, format!("srv{i}_{s}"));
            t.set_region(srv, i as u32).expect("node just added");
            t.add_link(*l, srv, 0.05, link_gbps).expect("server link");
        }
    }
    t
}

/// A three-tier k-ary fat-tree (Al-Fares et al.): `(k/2)²` core switches,
/// `k` pods of `k/2` aggregation and `k/2` edge switches, and `k/2`
/// servers per edge switch — `k³/4` servers total, the canonical
/// data-center fabric for large distributed-AI jobs (`fat_tree(10)` hosts
/// 250 servers, enough for 200-terminal scheduling decisions).
///
/// Aggregation switch `j` of every pod uplinks to core switches
/// `j·k/2 .. (j+1)·k/2`; edge↔aggregation is full bipartite within a pod.
/// Fabric links (core↔agg, agg↔edge) are WDM with 4 wavelengths at
/// `link_gbps`, server access links are grey at the same rate — mirroring
/// [`spine_leaf`]'s optical modelling so RWA and grooming scenarios run
/// unchanged. Node ordering: cores, then aggregation (pod-major), then
/// edge (pod-major), then servers (edge-major), so id ranges are easy to
/// reason about in tests.
///
/// # Panics
/// Panics if `k` is odd or less than 2.
pub fn fat_tree(k: usize, link_gbps: f64) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even and >= 2"
    );
    let half = k / 2;
    let mut t = Topology::new();
    let cores: Vec<NodeId> = (0..half * half)
        .map(|i| t.add_node(NodeKind::IpRouter, format!("core{i}")))
        .collect();
    let aggs: Vec<Vec<NodeId>> = (0..k)
        .map(|p| {
            (0..half)
                .map(|j| {
                    let id = t.add_node(NodeKind::IpRouter, format!("agg{p}_{j}"));
                    t.set_region(id, p as u32).expect("node just added");
                    id
                })
                .collect()
        })
        .collect();
    let edges: Vec<Vec<NodeId>> = (0..k)
        .map(|p| {
            (0..half)
                .map(|j| {
                    let id = t.add_node(NodeKind::IpRouter, format!("edge{p}_{j}"));
                    t.set_region(id, p as u32).expect("node just added");
                    id
                })
                .collect()
        })
        .collect();
    for p in 0..k {
        for (j, agg) in aggs[p].iter().enumerate() {
            for c in 0..half {
                t.add_wdm_link(*agg, cores[j * half + c], 0.5, link_gbps, 4)
                    .expect("core uplink endpoints exist");
            }
            for edge in &edges[p] {
                t.add_wdm_link(*edge, *agg, 0.3, link_gbps, 4)
                    .expect("pod fabric endpoints exist");
            }
        }
    }
    for (p, pod_edges) in edges.iter().enumerate() {
        for (e, edge) in pod_edges.iter().enumerate() {
            for s in 0..half {
                let srv = t.add_node(NodeKind::Server, format!("srv{p}_{e}_{s}"));
                t.set_region(srv, p as u32).expect("node just added");
                t.add_link(*edge, srv, 0.05, link_gbps)
                    .expect("server link endpoints exist");
            }
        }
    }
    t
}

/// A seeded Erdos-Renyi G(n, p) graph over IP routers, patched to be
/// connected by chaining component representatives. Every fourth node is a
/// server so placement logic has hosts to use.
///
/// # Panics
/// Panics if `n == 0` or `p` is not within `[0, 1]`.
pub fn random_connected(n: usize, p: f64, seed: u64, capacity_gbps: f64) -> Topology {
    assert!(n > 0, "random topology needs nodes");
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            let kind = if i % 4 == 3 {
                NodeKind::Server
            } else {
                NodeKind::IpRouter
            };
            t.add_node(kind, format!("x{i}"))
        })
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random_range(0.0..1.0) < p {
                let km = rng.random_range(1.0..20.0);
                t.add_link(ids[i], ids[j], km, capacity_gbps)
                    .expect("random endpoints exist");
            }
        }
    }
    // Patch connectivity: link the smallest member of each component to the
    // smallest member of the first component.
    let comps = crate::algo::traversal::connected_components(&t);
    if comps.len() > 1 {
        let anchor = comps[0][0];
        for comp in &comps[1..] {
            let km = rng.random_range(1.0..20.0);
            t.add_link(anchor, comp[0], km, capacity_gbps)
                .expect("patch endpoints exist");
        }
    }
    t
}

/// Parameters for the continental backbone fabric: the 14-site NSFNET WDM
/// core with metro aggregation rings hanging off every site.
#[derive(Debug, Clone)]
pub struct BackboneParams {
    /// Metro aggregation rings attached to each NSFNET site.
    pub metros_per_site: usize,
    /// Shape of each metro ring (see [`MetroParams`]).
    pub metro: MetroParams,
    /// Multiplier on the stored NSFNET span lengths. The stored spans are
    /// 1/20-scale metro-ish kilometres; `20.0` restores the classic
    /// continental distances.
    pub core_scale: f64,
    /// Wavelengths per core fiber (also used on the metro express uplinks).
    pub core_wavelengths: u16,
    /// Per-wavelength rate on core fibers, Gbit/s.
    pub core_wavelength_gbps: f64,
}

impl Default for BackboneParams {
    fn default() -> Self {
        BackboneParams {
            metros_per_site: 4,
            metro: MetroParams::default(),
            core_scale: 20.0,
            core_wavelengths: 16,
            core_wavelength_gbps: 400.0,
        }
    }
}

impl BackboneParams {
    /// Links contributed by one metro ring: the ring itself, its express
    /// chords, the router add/drop attachments, the server access links
    /// and the two express uplinks to the site's core ROADM. Exact for
    /// `core_roadms >= 4` (at 3 the single possible chord duplicates a
    /// ring span and is skipped).
    pub(crate) fn links_per_metro(&self) -> usize {
        let m = &self.metro;
        let r = m.core_roadms;
        r + m.chords.min(r / 2) + r + r * m.servers_per_router + 2
    }

    /// Scale `metros_per_site` so the fabric carries at least
    /// `target_links` links (national scale is 10⁵–10⁶).
    pub fn with_target_links(mut self, target: usize) -> Self {
        let per_site = self.links_per_metro() * NSFNET_SITES;
        self.metros_per_site = target.div_ceil(per_site).max(1);
        self
    }
}

/// Build a continental WDM fabric: the [`nsfnet`] core re-scaled to
/// continental span lengths, with `metros_per_site` metro aggregation
/// rings (each shaped by [`MetroParams`], uplinked through two express
/// fibers for path diversity) hanging off every site. Every node carries
/// its NSFNET site index as its region. With default metro parameters,
/// `BackboneParams::default().with_target_links(100_000)` yields a
/// ≈10⁵-link national fabric; `with_target_links(1_000_000)` a ≈10⁶-link
/// one.
///
/// # Panics
/// Panics if `metros_per_site == 0` or the metro shape violates
/// [`metro`]'s own preconditions.
pub fn backbone(p: &BackboneParams) -> Topology {
    assert!(
        p.metros_per_site > 0,
        "backbone needs at least one metro ring per site"
    );
    let m = &p.metro;
    assert!(m.core_roadms >= 3, "metro core needs at least 3 ROADMs");
    assert!(
        m.servers_per_router > 0,
        "need at least one server per router"
    );
    let mut t = Topology::new();
    let core_capacity = p.core_wavelength_gbps * f64::from(p.core_wavelengths);
    let metro_capacity = m.wavelength_gbps * f64::from(m.core_wavelengths);

    // Continental core: one ROADM per NSFNET site.
    let sites: Vec<NodeId> = (0..NSFNET_SITES)
        .map(|i| {
            let id = t.add_node(NodeKind::Roadm, format!("bb{i}"));
            t.set_region(id, i as u32).expect("node just added");
            id
        })
        .collect();
    for &(a, b, km) in NSFNET_SPANS {
        t.add_wdm_link(
            sites[a],
            sites[b],
            km * p.core_scale,
            core_capacity,
            p.core_wavelengths,
        )
        .expect("core endpoints exist");
    }

    let half = m.core_roadms / 2;
    for (site, &core) in sites.iter().enumerate() {
        let region = site as u32;
        for mi in 0..p.metros_per_site {
            // Metro ring, same shape as `metro(...)` but tagged with the
            // *site* region rather than per-ROADM sites.
            let roadms: Vec<NodeId> = (0..m.core_roadms)
                .map(|i| {
                    let id = t.add_node(NodeKind::Roadm, format!("s{site}m{mi}_roadm{i}"));
                    t.set_region(id, region).expect("node just added");
                    id
                })
                .collect();
            for i in 0..m.core_roadms {
                t.add_wdm_link(
                    roadms[i],
                    roadms[(i + 1) % m.core_roadms],
                    m.core_span_km,
                    metro_capacity,
                    m.core_wavelengths,
                )
                .expect("ring endpoints exist");
            }
            for c in 0..m.chords.min(half) {
                let (a, b) = (c, (c + half) % m.core_roadms);
                if a != b && t.find_link(roadms[a], roadms[b]).is_none() {
                    t.add_wdm_link(
                        roadms[a],
                        roadms[b],
                        m.core_span_km * half as f64 * 0.8,
                        metro_capacity,
                        m.core_wavelengths,
                    )
                    .expect("chord endpoints exist");
                }
            }
            for (i, roadm) in roadms.iter().enumerate() {
                let router = t.add_node(NodeKind::IpRouter, format!("s{site}m{mi}_router{i}"));
                t.set_region(router, region).expect("node just added");
                t.add_wdm_link(router, *roadm, 0.1, metro_capacity, m.core_wavelengths)
                    .expect("attachment endpoints exist");
                for s in 0..m.servers_per_router {
                    let srv = t.add_node(NodeKind::Server, format!("s{site}m{mi}_srv{i}_{s}"));
                    t.set_region(srv, region).expect("node just added");
                    t.add_link(router, srv, m.access_km, m.access_gbps)
                        .expect("access endpoints exist");
                }
            }
            // Two express uplinks into the continental core for diversity.
            for entry in [roadms[0], roadms[half.max(1) % m.core_roadms]] {
                t.add_wdm_link(
                    core,
                    entry,
                    m.core_span_km * 2.0,
                    core_capacity,
                    p.core_wavelengths,
                )
                .expect("uplink endpoints exist");
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::traversal::is_connected;

    #[test]
    fn linear_has_n_minus_1_links() {
        let t = linear(5, 2.0, 100.0);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.link_count(), 4);
    }

    #[test]
    fn star_attaches_all_leaves_to_hub() {
        let t = star(6, 1.0, 40.0);
        assert_eq!(t.node_count(), 7);
        assert_eq!(t.neighbors(NodeId(0)).unwrap().len(), 6);
        assert_eq!(t.servers().len(), 6);
    }

    #[test]
    fn nsfnet_shape() {
        let t = nsfnet();
        assert_eq!(t.node_count(), 14);
        assert_eq!(t.link_count(), 21);
        assert!(is_connected(&t));
    }

    #[test]
    fn metro_default_shape() {
        let p = MetroParams::default();
        let t = metro(&p);
        assert_eq!(t.node_count(), p.core_roadms * (2 + p.servers_per_router));
        assert!(is_connected(&t));
        assert_eq!(t.servers().len(), p.core_roadms * p.servers_per_router);
        // ROADMs come first in id order.
        for i in 0..p.core_roadms {
            assert_eq!(t.node(NodeId(i as u32)).unwrap().kind, NodeKind::Roadm);
        }
    }

    #[test]
    fn metro_core_links_are_wdm() {
        let t = metro(&MetroParams::default());
        let core = t.links().iter().filter(|l| l.wavelengths > 1).count();
        assert!(core >= 6, "expected WDM core links, got {core}");
    }

    #[test]
    fn spine_leaf_full_bipartite() {
        let t = spine_leaf(2, 4, 3, true, 400.0);
        // 2 spines + 4 leaves + 12 servers.
        assert_eq!(t.node_count(), 18);
        // 8 fabric links + 12 server links.
        assert_eq!(t.link_count(), 20);
        assert!(is_connected(&t));
        assert_eq!(t.nodes_of_kind(NodeKind::Roadm).len(), 6);
    }

    #[test]
    fn spine_leaf_electrical_variant() {
        let t = spine_leaf(2, 2, 1, false, 100.0);
        assert_eq!(t.nodes_of_kind(NodeKind::Roadm).len(), 0);
        assert_eq!(t.nodes_of_kind(NodeKind::IpRouter).len(), 4);
    }

    #[test]
    fn fat_tree_shape() {
        let k = 4;
        let t = fat_tree(k, 400.0);
        let half = k / 2;
        // (k/2)^2 cores + k*(k/2) agg + k*(k/2) edge + k^3/4 servers.
        assert_eq!(t.node_count(), half * half + 2 * k * half + k * half * half);
        // k^3/4 links per tier (core uplinks, pod fabric, server access).
        assert_eq!(t.link_count(), 3 * k * half * half);
        assert!(is_connected(&t));
        assert_eq!(t.servers().len(), k * half * half);
        // Cores come first in id order; fabric links carry a WDM grid.
        for i in 0..half * half {
            assert_eq!(t.node(NodeId(i as u32)).unwrap().kind, NodeKind::IpRouter);
        }
        let wdm = t.links().iter().filter(|l| l.wavelengths > 1).count();
        assert_eq!(wdm, 2 * k * half * half, "fabric tiers are WDM");
    }

    #[test]
    fn fat_tree_10_hosts_200_terminal_decisions() {
        let t = fat_tree(10, 400.0);
        assert_eq!(t.servers().len(), 250);
        assert!(is_connected(&t));
    }

    #[test]
    #[should_panic]
    fn fat_tree_odd_arity_panics() {
        let _ = fat_tree(3, 100.0);
    }

    #[test]
    fn metro_regions_tag_each_site() {
        let p = MetroParams::default();
        let t = metro(&p);
        // Every node carries its site: roadm_i, router_i and their servers
        // all land in region i; no node is untagged.
        for n in t.nodes() {
            let r = n.region.expect("metro tags every node");
            assert!((r as usize) < p.core_roadms, "{}: region {r}", n.name);
        }
        for i in 0..p.core_roadms {
            assert_eq!(t.node(NodeId(i as u32)).unwrap().region, Some(i as u32));
        }
        let servers = t.servers();
        for (idx, s) in servers.iter().enumerate() {
            let site = (idx / p.servers_per_router) as u32;
            assert_eq!(t.node(*s).unwrap().region, Some(site));
        }
    }

    #[test]
    fn fat_tree_regions_tag_pods_cores_untagged() {
        let k = 4;
        let t = fat_tree(k, 400.0);
        let half = k / 2;
        for i in 0..half * half {
            assert_eq!(t.node(NodeId(i as u32)).unwrap().region, None, "cores");
        }
        // Aggs/edges/servers all carry their pod index.
        for n in t.nodes().iter().skip(half * half) {
            assert!(n.region.is_some(), "{} must carry its pod", n.name);
            assert!((n.region.unwrap() as usize) < k);
        }
    }

    #[test]
    fn spine_leaf_regions_tag_leaf_racks() {
        let t = spine_leaf(2, 4, 3, true, 400.0);
        for i in 0..2u32 {
            assert_eq!(t.node(NodeId(i)).unwrap().region, None, "spines");
        }
        for i in 0..4u32 {
            assert_eq!(t.node(NodeId(2 + i)).unwrap().region, Some(i), "leaves");
        }
        for (idx, s) in t.servers().iter().enumerate() {
            assert_eq!(t.node(*s).unwrap().region, Some((idx / 3) as u32));
        }
    }

    #[test]
    fn random_is_connected_and_deterministic() {
        let t1 = random_connected(40, 0.05, 42, 100.0);
        let t2 = random_connected(40, 0.05, 42, 100.0);
        assert!(is_connected(&t1));
        assert_eq!(t1.link_count(), t2.link_count());
        assert_eq!(t1.links(), t2.links());
    }

    #[test]
    fn random_different_seeds_differ() {
        let t1 = random_connected(40, 0.1, 1, 100.0);
        let t2 = random_connected(40, 0.1, 2, 100.0);
        // Overwhelmingly likely to differ in at least one link.
        assert_ne!(t1.links(), t2.links());
    }

    #[test]
    fn nsfnet_regions_tag_each_site() {
        let t = nsfnet();
        for (i, n) in t.nodes().iter().enumerate() {
            assert_eq!(n.region, Some(i as u32), "{}", n.name);
        }
    }

    #[test]
    fn backbone_shape_and_regions() {
        let p = BackboneParams {
            metros_per_site: 2,
            ..BackboneParams::default()
        };
        let t = backbone(&p);
        assert!(is_connected(&t));
        // 14 core ROADMs + per-metro (roadms + routers + servers).
        let m = &p.metro;
        let per_metro_nodes = m.core_roadms * (2 + m.servers_per_router);
        assert_eq!(
            t.node_count(),
            NSFNET_SITES * (1 + p.metros_per_site * per_metro_nodes)
        );
        assert_eq!(
            t.link_count(),
            NSFNET_SPANS.len() + NSFNET_SITES * p.metros_per_site * p.links_per_metro()
        );
        // Every node carries its NSFNET site as its region.
        for n in t.nodes() {
            assert!(
                n.region.is_some_and(|r| (r as usize) < NSFNET_SITES),
                "{}: untagged",
                n.name
            );
        }
        // Servers exist at every site for placement.
        assert_eq!(
            t.servers().len(),
            NSFNET_SITES * p.metros_per_site * m.core_roadms * m.servers_per_router
        );
    }

    #[test]
    fn backbone_scales_to_target_link_counts() {
        let p = BackboneParams::default().with_target_links(20_000);
        let t = backbone(&p);
        assert!(
            t.link_count() >= 20_000,
            "target missed: {}",
            t.link_count()
        );
        assert!(is_connected(&t));
    }
}
