//! The optical layer's two fast paths against what they replaced, over
//! random interleavings of every mutation the layer has:
//!
//! * grooming from the endpoint index ≡ the linear scan
//!   (`reference::ScanGroomer`) — same lightpath per placement, same
//!   counters and demand ids, same state after every step, rollbacks of
//!   grooms that fail mid-chain included, and a demand id released twice
//!   or never issued refused by both;
//! * the flat frozen view ≡ the live state it froze, for every link,
//!   every endpoint pair and demands either side of every residual;
//! * after every step, the optical state's `spectrum` clause and the
//!   grooming manager's `grooming` clause hold.

mod reference;

use flexsched_optical::{
    split_at_electrical, GroomingManager, LightpathId, OpticalError, OpticalState, WavelengthId,
};
use flexsched_topo::{algo, builders, LinkId, NodeId, Path, Topology};
use proptest::prelude::*;
use reference::ScanGroomer;
use std::sync::Arc;

/// One mutation of the optical layer, drawn blind; `World::apply` maps the
/// numbers onto what exists at that point.
type Op = (u8, usize, usize, f64, u8);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Rates reach past a 100 G channel, so some grooms fail on capacity.
    proptest::collection::vec(
        (
            0u8..10,
            0usize..10_000,
            0usize..10_000,
            0.5f64..130.0,
            0u8..4,
        ),
        1..120,
    )
}

/// The paper's metro, and an electrical spine-leaf fabric whose
/// 4-wavelength uplinks run out, so multi-segment grooms fail at a later
/// segment and roll the earlier ones back.
fn fabrics() -> [Arc<Topology>; 2] {
    [
        Arc::new(builders::metro(&builders::MetroParams::default())),
        Arc::new(builders::spine_leaf(2, 3, 2, false, 400.0)),
    ]
}

/// A route from one of a handful of servers to a hub server — like a
/// task's chains towards its global site, and few enough that routes
/// share segments and a segment collects parallel lightpaths — over one
/// of the three shortest paths, so the same endpoints are groomed over
/// different segments. One route in seven runs away from the hub: a grey
/// access link has one channel, so that groom finds it taken by the
/// opposite direction and fails after placing its earlier segments.
fn route(topo: &Topology, a: usize, b: usize) -> Option<Path> {
    let servers = topo.servers();
    let (hub, leaf) = (servers[0], servers[1 + b % 4]);
    let (from, to) = if a.is_multiple_of(7) {
        (hub, leaf)
    } else {
        (leaf, hub)
    };
    let mut routes = algo::k_shortest_paths(topo, from, to, 3, algo::hop_weight).ok()?;
    let pick = a % routes.len();
    Some(routes.swap_remove(pick))
}

/// What a step did, in a form two worlds can be compared by.
#[derive(Debug, PartialEq)]
enum Outcome {
    Skipped,
    Groomed(Result<(u64, Vec<LightpathId>), String>),
    Released(Result<(), String>),
    Established(Result<LightpathId, String>),
    TornDown(LightpathId),
    Impaired(Result<(), String>),
}

trait Groomer: Default {
    fn groom(
        &mut self,
        opt: &mut OpticalState,
        path: &Path,
        gbps: f64,
    ) -> Result<(u64, Vec<LightpathId>), String>;
    fn release(&mut self, opt: &mut OpticalState, demand: u64) -> Result<(), String>;
    fn counters(&self) -> (u64, u64);
}

impl Groomer for GroomingManager {
    fn groom(
        &mut self,
        opt: &mut OpticalState,
        path: &Path,
        gbps: f64,
    ) -> Result<(u64, Vec<LightpathId>), String> {
        let id = GroomingManager::groom(self, opt, path, gbps).map_err(|e| e.to_string())?;
        Ok((id, self.demand(id).unwrap().lightpaths.clone()))
    }
    fn release(&mut self, opt: &mut OpticalState, demand: u64) -> Result<(), String> {
        GroomingManager::release(self, opt, demand).map_err(|e| e.to_string())
    }
    fn counters(&self) -> (u64, u64) {
        (self.reuse_hits(), self.new_lights())
    }
}

impl Groomer for ScanGroomer {
    fn groom(
        &mut self,
        opt: &mut OpticalState,
        path: &Path,
        gbps: f64,
    ) -> Result<(u64, Vec<LightpathId>), String> {
        let id = ScanGroomer::groom(self, opt, path, gbps).map_err(|e| e.to_string())?;
        Ok((id, self.demands[&id].1.clone()))
    }
    fn release(&mut self, opt: &mut OpticalState, demand: u64) -> Result<(), String> {
        ScanGroomer::release(self, opt, demand).map_err(|e| e.to_string())
    }
    fn counters(&self) -> (u64, u64) {
        (self.reuse_hits, self.new_lights)
    }
}

/// An optical state, the manager grooming it and the demands it holds.
struct World<G> {
    topo: Arc<Topology>,
    opt: OpticalState,
    mgr: G,
    demands: Vec<u64>,
    /// Demand ids released so far.
    released: Vec<u64>,
    /// One past the largest demand id issued so far.
    issued: u64,
    /// A lightpath was torn down under a demand on purpose: the grooming
    /// table no longer matches the lightpaths from here on.
    torn_under_demand: bool,
}

impl<G: Groomer> World<G> {
    fn new(topo: &Arc<Topology>) -> Self {
        World {
            topo: Arc::clone(topo),
            opt: OpticalState::new(Arc::clone(topo)),
            mgr: G::default(),
            demands: Vec::new(),
            released: Vec::new(),
            issued: 0,
            torn_under_demand: false,
        }
    }

    fn apply(&mut self, (kind, a, b, gbps, flag): Op) -> Outcome {
        match kind {
            // Half of all steps groom: four in five at one of a few round
            // rates, so lightpaths tie on residual and several fit;
            // the rest anywhere up to rates that fit nowhere.
            0..=4 => match route(&self.topo, a, b) {
                Some(path) => {
                    let gbps = match b % 5 {
                        0 => gbps,
                        _ => [2.5, 5.0, 10.0, 25.0, 40.0][gbps as usize % 5],
                    };
                    let groomed = self.mgr.groom(&mut self.opt, &path, gbps);
                    if let Ok((id, _)) = &groomed {
                        self.demands.push(*id);
                        self.issued = self.issued.max(id + 1);
                    }
                    Outcome::Groomed(groomed)
                }
                None => Outcome::Skipped,
            },
            5 if !self.demands.is_empty() => {
                let demand = self.demands.swap_remove(a % self.demands.len());
                self.released.push(demand);
                Outcome::Released(self.mgr.release(&mut self.opt, demand))
            }
            // A lightpath nobody grooms yet, over one segment of a route:
            // parallel to what is lit there, and tied with every other
            // untouched one for the emptiest best-fit candidate.
            6 => match route(&self.topo, a, b) {
                Some(path) => {
                    let mut segments = split_at_electrical(&self.topo, &path).unwrap();
                    let segment = segments.swap_remove(b % segments.len());
                    Outcome::Established(self.opt.establish(segment).map_err(|e| e.to_string()))
                }
                None => Outcome::Skipped,
            },
            // Torn down under whatever demand is on it: that demand's
            // release then fails half way, the same way in both worlds.
            7 if self.opt.lightpath_count() > 0 => {
                let id = self
                    .opt
                    .lightpaths()
                    .nth(a % self.opt.lightpath_count())
                    .unwrap()
                    .id;
                let lp = self.opt.teardown(id).unwrap();
                self.torn_under_demand |= !lp.is_idle();
                Outcome::TornDown(id)
            }
            // A soft failure comes or goes. On a WDM span only: a server's
            // single grey channel, once impaired, fails every later groom.
            8 => {
                let link = LinkId((a % self.topo.link_count()) as u32);
                let grid = self.topo.link(link).unwrap().wavelengths.max(1);
                if grid == 1 {
                    return Outcome::Skipped;
                }
                Outcome::Impaired(
                    self.opt
                        .set_impaired(link, WavelengthId(b as u16 % (grid + 1)), flag % 2 == 0)
                        .map_err(|e| e.to_string()),
                )
            }
            // A demand id that is not live: one released before, or one
            // not issued yet. Refused, and nothing else is released.
            9 => {
                let demand = match self.released.len() {
                    n if n > 0 && b % 2 == 0 => self.released[a % n],
                    _ => self.issued + (a % 3) as u64,
                };
                let refused = self.mgr.release(&mut self.opt, demand);
                assert_eq!(
                    refused,
                    Err(OpticalError::UnknownAllocation(demand).to_string())
                );
                Outcome::Released(refused)
            }
            _ => Outcome::Skipped,
        }
    }
}

impl World<GroomingManager> {
    /// The optical state's invariant after a step, and the grooming
    /// manager's against it until a teardown broke that on purpose.
    fn check_invariants(&self) -> Result<(), (&'static str, String)> {
        self.opt.check_invariants()?;
        if self.torn_under_demand {
            return Ok(());
        }
        self.mgr.check_invariants(&self.opt)
    }
}

/// Rates around every residual in `opt`: where a `>=` with slack flips.
fn rates_around_residuals(opt: &OpticalState) -> Vec<f64> {
    let mut residuals: Vec<f64> = opt.lightpaths().map(|lp| lp.residual_gbps()).collect();
    residuals.sort_by(f64::total_cmp);
    residuals.dedup();
    let mut rates = vec![0.0, 1e9];
    for r in residuals {
        rates.extend([r, r - 1e-9, r + 1e-9, r + 2e-9, r - 1e-6, r + 1e-6]);
    }
    rates
}

/// Endpoint pairs worth asking about: every lit one, both ways round, and
/// one that never has a lightpath.
fn endpoint_pairs(opt: &OpticalState) -> Vec<(NodeId, NodeId)> {
    let mut pairs: Vec<(NodeId, NodeId)> = opt
        .lightpaths()
        .flat_map(|lp| {
            [
                (lp.source(), lp.destination()),
                (lp.destination(), lp.source()),
            ]
        })
        .collect();
    pairs.push((NodeId(0), NodeId(0)));
    pairs.sort();
    pairs.dedup();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grooming from the endpoint index is the scan it replaced.
    #[test]
    fn indexed_best_fit_matches_the_scan(ops in ops()) {
        for topo in fabrics() {
            let mut indexed: World<GroomingManager> = World::new(&topo);
            let mut scanned: World<ScanGroomer> = World::new(&topo);
            for (step, op) in ops.iter().enumerate() {
                let did = indexed.apply(*op);
                prop_assert_eq!(&did, &scanned.apply(*op), "step {}: outcomes differ", step);
                prop_assert_eq!(indexed.check_invariants(), Ok(()), "step {}: {:?}", step, did);
                prop_assert_eq!(scanned.opt.check_invariants(), Ok(()));
                prop_assert_eq!(indexed.mgr.counters(), scanned.mgr.counters());
                // Registry, holders, occupancy words, usage and the stamp.
                prop_assert_eq!(
                    format!("{:?}", indexed.opt),
                    format!("{:?}", scanned.opt),
                    "step {}: states differ after {:?}", step, did
                );
                prop_assert_eq!(indexed.opt.version(), scanned.opt.version());
            }
        }
    }

    /// A frozen view answers every question like the state it froze, and
    /// a view refilled from another fabric keeps nothing of the last one.
    #[test]
    fn frozen_view_matches_live_state(ops in ops()) {
        let fabrics = fabrics();
        let mut worlds: Vec<World<GroomingManager>> = fabrics.iter().map(World::new).collect();
        // One buffer for both fabrics: each refill shrinks or grows it.
        let mut refilled = worlds[0].opt.snapshot();
        for (step, op) in ops.iter().enumerate() {
            for world in &mut worlds {
                world.apply(*op);
                prop_assert_eq!(world.check_invariants(), Ok(()), "step {}", step);
                // The full sweep is quadratic; the refill check is not.
                refilled.recapture(&world.opt);
                let snap = world.opt.snapshot();
                prop_assert_eq!(format!("{refilled:?}"), format!("{snap:?}"));
                if step % 8 != 7 && step + 1 != ops.len() {
                    continue;
                }
                let opt = &world.opt;
                let rates = rates_around_residuals(opt);
                prop_assert_eq!(snap.version(), opt.version());
                for l in (0..world.topo.link_count() as u32 + 1).map(LinkId) {
                    prop_assert_eq!(
                        snap.has_free_wavelength(l).ok(),
                        opt.has_free_wavelength(l).ok()
                    );
                    prop_assert_eq!(
                        snap.free_wavelength_count(l).ok(),
                        opt.free_wavelength_count(l).ok()
                    );
                    for gbps in &rates {
                        prop_assert_eq!(
                            snap.groomable_across(l, *gbps),
                            opt.groomable_across(l, *gbps),
                            "across {} at {}", l, gbps
                        );
                        prop_assert_eq!(snap.can_carry(l, *gbps), opt.can_carry(l, *gbps));
                    }
                }
                for (src, dst) in endpoint_pairs(opt) {
                    for gbps in &rates {
                        prop_assert_eq!(
                            snap.groomable_between(src, dst, *gbps),
                            opt.groomable_between(src, dst, *gbps),
                            "between {} and {} at {}", src, dst, gbps
                        );
                    }
                }
                for (a, b) in [(op.1, op.2), (op.2, op.1), (step, op.1)] {
                    if let Some(path) = route(&world.topo, a, b) {
                        prop_assert_eq!(
                            snap.free_mask_on_path(&path).ok(),
                            opt.free_mask_on_path(&path).ok()
                        );
                    }
                }
            }
        }
    }
}
