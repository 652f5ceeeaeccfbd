//! Background ("live") traffic generator.
//!
//! The paper's testbed injects live traffic with a hardware traffic
//! generator so the scheduler competes for residual bandwidth. This module
//! reproduces that: seeded Poisson flow arrivals between random server
//! pairs, exponential holding times and log-normal-ish rates, routed on
//! shortest paths and applied to [`NetworkState`] as background load.

use crate::state::{DirLink, NetworkState};
use crate::time::SimTime;
use crate::Result;
use flexsched_topo::{algo, NodeId, Path, Topology};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of the background traffic process.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Mean inter-arrival time between flows.
    pub mean_interarrival: SimTime,
    /// Mean flow holding time.
    pub mean_duration: SimTime,
    /// Mean flow rate, Gbit/s.
    pub mean_rate_gbps: f64,
    /// Rate dispersion (sigma of the underlying normal in log space).
    pub rate_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            mean_interarrival: SimTime::from_us(200),
            mean_duration: SimTime::from_ms(2),
            mean_rate_gbps: 5.0,
            rate_sigma: 0.5,
            seed: 1,
        }
    }
}

/// An active background flow.
#[derive(Debug, Clone)]
pub struct BgFlow {
    /// Generator-scoped flow id.
    pub id: u64,
    /// Route taken.
    pub path: Path,
    /// Rate applied to every hop, Gbit/s.
    pub rate_gbps: f64,
}

/// Seeded background-traffic source.
///
/// The generator is runtime-agnostic: callers pull samples
/// ([`TrafficGenerator::sample_interarrival`] /
/// [`TrafficGenerator::sample_duration`]) and call
/// [`TrafficGenerator::spawn_flow`] and [`TrafficGenerator::retire_flow`]
/// from their own event engine.
pub struct TrafficGenerator {
    cfg: TrafficConfig,
    topo: Arc<Topology>,
    rng: StdRng,
    servers: Vec<NodeId>,
    next_id: u64,
    active: BTreeMap<u64, BgFlow>,
}

impl TrafficGenerator {
    /// Create a generator over the topology's server set.
    ///
    /// # Panics
    /// Panics if the topology has fewer than two servers (no traffic pairs).
    pub fn new(cfg: TrafficConfig, topo: Arc<Topology>) -> Self {
        let servers = topo.servers();
        assert!(
            servers.len() >= 2,
            "background traffic needs at least two servers"
        );
        let rng = StdRng::seed_from_u64(cfg.seed);
        TrafficGenerator {
            cfg,
            topo,
            rng,
            servers,
            next_id: 0,
            active: BTreeMap::new(),
        }
    }

    fn sample_exp(&mut self, mean_ns: f64) -> u64 {
        let u: f64 = self.rng.random_range(f64::EPSILON..1.0);
        (-u.ln() * mean_ns).round().max(1.0) as u64
    }

    /// Sample the next inter-arrival gap (exponential).
    pub fn sample_interarrival(&mut self) -> SimTime {
        SimTime::from_ns(self.sample_exp(self.cfg.mean_interarrival.as_ns() as f64))
    }

    /// Sample a flow holding time (exponential).
    pub fn sample_duration(&mut self) -> SimTime {
        SimTime::from_ns(self.sample_exp(self.cfg.mean_duration.as_ns() as f64))
    }

    fn sample_rate(&mut self) -> f64 {
        // Log-normal via Box-Muller, median scaled to the configured mean.
        let u1: f64 = self.rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let sigma = self.cfg.rate_sigma;
        // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); solve mu for mean.
        let mu = self.cfg.mean_rate_gbps.ln() - sigma * sigma / 2.0;
        (mu + sigma * z).exp().clamp(0.01, 1_000.0)
    }

    /// Spawn a flow between two distinct random servers and apply its load.
    pub fn spawn_flow(&mut self, state: &mut NetworkState) -> Result<BgFlow> {
        let a = self.servers[self.rng.random_range(0..self.servers.len())];
        let b = loop {
            let cand = self.servers[self.rng.random_range(0..self.servers.len())];
            if cand != a {
                break cand;
            }
        };
        let path = algo::shortest_path(&self.topo, a, b, algo::latency_weight)?;
        let rate = self.sample_rate();
        apply_background(state, &path, rate)?;
        let id = self.next_id;
        self.next_id += 1;
        let flow = BgFlow {
            id,
            path,
            rate_gbps: rate,
        };
        self.active.insert(id, flow.clone());
        Ok(flow)
    }

    /// Remove a previously spawned flow's load.
    pub fn retire_flow(&mut self, state: &mut NetworkState, id: u64) -> Result<()> {
        let flow = self
            .active
            .remove(&id)
            .ok_or(crate::SimError::UnknownFlow(id))?;
        apply_background(state, &flow.path, -flow.rate_gbps)?;
        Ok(())
    }

    /// Currently active flows.
    #[cfg(test)]
    pub(crate) fn active_count(&self) -> usize {
        self.active.len()
    }
}

/// Add (`rate > 0`) or remove (`rate < 0`) background load along a path.
fn apply_background(state: &mut NetworkState, path: &Path, rate: f64) -> Result<()> {
    for (i, l) in path.links.iter().enumerate() {
        let dir = state
            .topo()
            .link(*l)?
            .direction_from(path.nodes[i])
            .ok_or(flexsched_topo::TopoError::UnknownLink(*l))?;
        state.add_background(DirLink::new(*l, dir), rate)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::builders;

    fn gen_with(seed: u64) -> (TrafficGenerator, NetworkState) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let state = NetworkState::new(Arc::clone(&topo));
        let cfg = TrafficConfig {
            seed,
            ..TrafficConfig::default()
        };
        (TrafficGenerator::new(cfg, topo), state)
    }

    #[test]
    fn flows_add_then_remove_background_load() {
        let (mut g, mut state) = gen_with(7);
        let f = g.spawn_flow(&mut state).unwrap();
        assert!(state.total_background_gbps() > 0.0);
        assert_eq!(g.active_count(), 1);
        g.retire_flow(&mut state, f.id).unwrap();
        assert!(state.total_background_gbps().abs() < 1e-9);
        assert_eq!(g.active_count(), 0);
    }

    #[test]
    fn retiring_unknown_flow_errors() {
        let (mut g, mut state) = gen_with(7);
        assert!(matches!(
            g.retire_flow(&mut state, 42),
            Err(crate::SimError::UnknownFlow(42))
        ));
    }

    #[test]
    fn equal_seeds_reproduce_identical_flows() {
        let (mut g1, mut s1) = gen_with(99);
        let (mut g2, mut s2) = gen_with(99);
        for _ in 0..20 {
            let f1 = g1.spawn_flow(&mut s1).unwrap();
            let f2 = g2.spawn_flow(&mut s2).unwrap();
            assert_eq!(f1.path, f2.path);
            assert!((f1.rate_gbps - f2.rate_gbps).abs() < 1e-12);
        }
        assert_eq!(s1.total_background_gbps(), s2.total_background_gbps());
    }

    #[test]
    fn different_seeds_differ() {
        let (mut g1, mut s1) = gen_with(1);
        let (mut g2, mut s2) = gen_with(2);
        let mut same = true;
        for _ in 0..10 {
            let f1 = g1.spawn_flow(&mut s1).unwrap();
            let f2 = g2.spawn_flow(&mut s2).unwrap();
            if f1.path != f2.path || (f1.rate_gbps - f2.rate_gbps).abs() > 1e-12 {
                same = false;
            }
        }
        assert!(!same);
    }

    #[test]
    fn interarrival_samples_are_positive_with_plausible_mean() {
        let (mut g, _) = gen_with(5);
        let n = 2_000;
        let total: u64 = (0..n).map(|_| g.sample_interarrival().as_ns()).sum();
        let mean = total as f64 / n as f64;
        let cfg_mean = TrafficConfig::default().mean_interarrival.as_ns() as f64;
        assert!(
            (mean - cfg_mean).abs() < cfg_mean * 0.2,
            "sample mean {mean} too far from {cfg_mean}"
        );
    }

    #[test]
    fn rates_are_positive_and_distributed() {
        let (mut g, mut state) = gen_with(3);
        let mut rates = Vec::new();
        for _ in 0..30 {
            rates.push(g.spawn_flow(&mut state).unwrap().rate_gbps);
        }
        assert!(rates.iter().all(|r| *r > 0.0));
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(max > min, "rates should vary");
    }

    #[test]
    fn offered_load_tracks_active_flows() {
        let (mut g, mut state) = gen_with(11);
        let f1 = g.spawn_flow(&mut state).unwrap();
        let f2 = g.spawn_flow(&mut state).unwrap();
        let offered: f64 = [&f1, &f2]
            .iter()
            .map(|f| f.rate_gbps * f.path.hop_count() as f64)
            .sum();
        assert_eq!(g.active_count(), 2);
        assert!((state.total_background_gbps() - offered).abs() < 1e-9);
    }
}
