//! The flexible scheduler: MST-based routing with multi-aggregation.
//!
//! "The flexible scheduler finds a suitable connectivity set ... We first
//! build auxiliary graphs for broadcast and upload procedures,
//! respectively. We initialize each link of the broadcast/upload graphs
//! according to bandwidth consumption and latency (if AI tasks pass through
//! the link), and then find MSTs between the global model and local models.
//! The links of MSTs are considered as routing paths, and the aggregation
//! operations happen in the middle and final nodes of upload procedure."
//!
//! The scheduler is a pure function of [`NetworkSnapshot`] + task; both
//! trees are built by the one Steiner construction
//! ([`flexsched_topo::algo::mehlhorn`]) over Dijkstra state drawn from the
//! caller's [`ScratchPool`], so a worker thread that proposes many
//! schedules allocates nothing in steady state. Only the terminal core
//! ([`terminal_core`](flexsched_topo::algo::terminal_core())) is priced
//! and searched: a part of the fabric that holds no terminal and joins the
//! rest at one node (a server, an access tree, a metro ring behind its
//! core ROADM) cannot carry either tree.

use crate::error::{BlockReason, SchedError};
use crate::proposal::Proposal;
use crate::schedule::{copies_at, rate_floor_gbps, RoutingPlan, Schedule};
use crate::snapshot::NetworkSnapshot;
use crate::weights::{auxiliary_weight, GAMMA_WAVELENGTH};
use crate::{Result, Scheduler};
use flexsched_task::AiTask;
use flexsched_topo::algo::{steiner_tree_with_weights_in, terminal_core, ScratchPool, SteinerTree};
use flexsched_topo::{LinkId, NodeId, Topology};
use std::sync::Arc;

/// A decision's broadcast and upload trees, or why there are none.
type TreePair =
    std::result::Result<(Arc<SteinerTree>, Arc<SteinerTree>), flexsched_topo::TopoError>;

/// The proposed MST-based flexible scheduler.
#[derive(Debug, Clone)]
pub struct FlexibleMst {
    /// Enable in-network aggregation at capable tree nodes. Disabling it is
    /// the ablation that shows where the bandwidth saving comes from: the
    /// tree still shares segments, but every edge must carry one update per
    /// descendant local model.
    pub aggregation: bool,
    /// Weight of the wavelength-headroom term: how strongly trees prefer
    /// fibers whose continuity set still has free wavelengths (see
    /// [`auxiliary_weight`]). Zero reproduces the poster's binary
    /// feasibility; the default steers trees toward spectral headroom.
    pub wavelength_headroom: f64,
}

impl Default for FlexibleMst {
    fn default() -> Self {
        FlexibleMst {
            aggregation: true,
            wavelength_headroom: GAMMA_WAVELENGTH,
        }
    }
}

impl FlexibleMst {
    /// The scheduler exactly as evaluated in the poster: binary wavelength
    /// feasibility (no headroom steering).
    pub fn paper() -> Self {
        FlexibleMst {
            wavelength_headroom: 0.0,
            ..Self::default()
        }
    }

    /// Ablation: tree routing without in-network aggregation.
    pub fn without_aggregation() -> Self {
        FlexibleMst {
            aggregation: false,
            ..Self::paper()
        }
    }

    /// The one pricing pass of a decision: the auxiliary weight with
    /// nothing reused of every link in `links` (the [`terminal_core`]'s),
    /// written into `out`, whose other slots stay `f64::INFINITY`. No tree
    /// of the core's terminals can use a link outside it ([`terminal_core`]
    /// gives the argument), so such a link is never priced. Returns how
    /// many links it priced.
    fn price_fabric(
        &self,
        snap: &NetworkSnapshot,
        demand: f64,
        links: impl Iterator<Item = LinkId>,
        out: &mut [f64],
    ) -> usize {
        let all = snap.topo().links();
        let mut priced = 0;
        for l in links {
            out[l.index()] =
                auxiliary_weight(snap, demand, &[], &all[l.index()], self.wavelength_headroom);
            priced += 1;
        }
        priced
    }

    /// Turn the no-reuse vector `weights` into the auxiliary weights under
    /// the ascending reuse set `reused`, in place: [`auxiliary_weight`]
    /// depends on `reused` solely through whether it holds the link, so
    /// only the reused links are priced again.
    fn reprice_reused(
        &self,
        snap: &NetworkSnapshot,
        demand: f64,
        reused: &[LinkId],
        weights: &mut [f64],
    ) {
        let links = snap.topo().links();
        for l in reused {
            weights[l.index()] = auxiliary_weight(
                snap,
                demand,
                reused,
                &links[l.index()],
                self.wavelength_headroom,
            );
        }
    }

    /// Both trees of a decision: the broadcast tree over the auxiliary
    /// graph with nothing reused, then the upload tree with the broadcast
    /// tree's links discounted.
    ///
    /// Both trees share their terminals, so the terminal core is computed
    /// once and the fabric is priced once, inside the core only, into a
    /// pooled vector whose other slots stay infinite; the upload tree
    /// re-prices its reused links in place and puts them back. Debug builds
    /// check every decision against the same two trees solved on
    /// full-fabric pricing.
    fn build_trees(
        &self,
        task: &AiTask,
        selected: &[NodeId],
        snap: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> TreePair {
        let topo = snap.topo();
        let mut core_bufs = scratch.take_core_bufs();
        let mut base = scratch.take_unpriced(topo.link_count());
        let trees =
            terminal_core(topo, task.global_site, selected, &mut core_bufs).and_then(|core| {
                let priced = self.price_fabric(snap, task.demand_gbps(), core.links(), &mut base);
                scratch.count_core_links(priced);
                scratch.count_priced(priced);
                let trees = self.trees_over(task, selected, snap, &mut base, scratch);
                for l in core.links() {
                    base[l.index()] = f64::INFINITY;
                }
                trees
            });
        scratch.give_back_unpriced(base);
        scratch.give_back_core_bufs(core_bufs);
        if cfg!(debug_assertions) {
            self.debug_check_core(task, selected, snap, &trees);
        }
        trees
    }

    /// The premise of solving on the terminal core, checked in debug
    /// builds: the same two trees solved on full-fabric pricing, in a pool
    /// of their own, are bit-equal to `trees` (or fail the same way).
    fn debug_check_core(
        &self,
        task: &AiTask,
        selected: &[NodeId],
        snap: &NetworkSnapshot,
        trees: &TreePair,
    ) {
        let mut full = vec![f64::INFINITY; snap.topo().link_count()];
        self.price_fabric(snap, task.demand_gbps(), snap.topo().link_ids(), &mut full);
        let want = self.trees_over(task, selected, snap, &mut full, &mut ScratchPool::new());
        assert_eq!(*trees, want, "the terminal core changed a tree");
        if let (Ok((b, u)), Ok((wb, wu))) = (trees, &want) {
            assert_eq!(
                (b.total_weight.to_bits(), u.total_weight.to_bits()),
                (wb.total_weight.to_bits(), wu.total_weight.to_bits()),
                "the terminal core changed a tree weight"
            );
        }
    }

    /// Broadcast then upload tree over the no-reuse vector `base`, which
    /// holds the same values again on return.
    fn trees_over(
        &self,
        task: &AiTask,
        selected: &[NodeId],
        snap: &NetworkSnapshot,
        base: &mut [f64],
        scratch: &mut ScratchPool,
    ) -> TreePair {
        let demand = task.demand_gbps();
        let mut tree = |reused: &[LinkId]| {
            let mut saved = scratch.take_weights();
            saved.extend(reused.iter().map(|l| base[l.index()]));
            self.reprice_reused(snap, demand, reused, base);
            scratch.count_priced(reused.len());
            let built = steiner_tree_with_weights_in(
                snap.topo(),
                task.global_site,
                selected,
                base,
                scratch,
            );
            for (l, w) in reused.iter().zip(&saved) {
                base[l.index()] = *w;
            }
            scratch.give_back_weights(saved);
            built.map(Arc::new)
        };
        tree(&[]).and_then(|broadcast| {
            // The task already passes through the broadcast tree's links
            // (ascending), so they carry the reuse discount.
            let upload = tree(&broadcast.links)?;
            Ok((broadcast, upload))
        })
    }

    /// Rate the two trees and assemble the proposal.
    fn finish(
        &self,
        task: &AiTask,
        selected: &[NodeId],
        snap: &NetworkSnapshot,
        broadcast_tree: Arc<SteinerTree>,
        upload_tree: Arc<SteinerTree>,
        scratch: &mut ScratchPool,
    ) -> Result<Proposal> {
        let demand = task.demand_gbps();
        let up_copies = upload_copies(
            &upload_tree,
            snap.topo(),
            selected,
            self.aggregation,
            scratch,
        )?;

        // Multicast: one copy on every broadcast edge.
        let bcast_rate = feasible_rate(snap, &broadcast_tree, &[], demand);
        let up_rate = feasible_rate(snap, &upload_tree, &up_copies, demand);
        let rate = bcast_rate.min(up_rate);
        let floor = rate_floor_gbps(demand);
        if rate < floor {
            return Err(SchedError::Blocked {
                task: task.id,
                reason: BlockReason::RateBelowFloor {
                    rate_gbps: rate,
                    floor_gbps: floor,
                },
            });
        }

        Ok(Proposal::assemble(
            Schedule {
                task: task.id,
                scheduler: self.name(),
                global_site: task.global_site,
                selected_locals: selected.to_vec(),
                demand_gbps: demand,
                broadcast: RoutingPlan::Tree {
                    tree: broadcast_tree,
                    rate_gbps: rate,
                    copies: Vec::new(),
                },
                upload: RoutingPlan::Tree {
                    tree: upload_tree,
                    rate_gbps: rate,
                    copies: up_copies,
                },
            },
            snap,
        ))
    }
}

/// Upload copy counts by tree position, the `copies` of an upload
/// [`RoutingPlan::Tree`]: `copies[i]` model updates ride the parent edge of
/// `tree.nodes[i]` (the root's entry is what reaches the root), given which
/// of the `selected` sites host a local model and which nodes can
/// aggregate.
///
/// Processes the tree bottom-up: a subtree contributes the sum of its
/// children's contributions plus one if its root hosts a selected local
/// model; a node that can aggregate collapses any number of updates to one.
pub fn upload_copies(
    tree: &SteinerTree,
    topo: &Topology,
    selected: &[NodeId],
    aggregation: bool,
    scratch: &mut ScratchPool,
) -> Result<Vec<u32>> {
    // Bottom-up accumulation over tree positions (breadth-first order
    // reversed, walked in a buffer borrowed from `scratch`), into an array
    // as long as the tree, seeded with one update per selected site however
    // often it is listed.
    let mut bufs = scratch.take_tree_bufs();
    let order = &mut bufs.counts;
    tree.bfs_positions_into(order);
    let mut carried: Vec<u32> = vec![0; tree.nodes.len()];
    for i in selected.iter().filter_map(|n| tree.position(*n)) {
        carried[i] = 1;
    }
    for &i in order.iter().rev() {
        let i = i as usize;
        let mut c = carried[i];
        for k in tree.child_positions(i) {
            c += carried[*k as usize];
        }
        let can_agg = topo.node(tree.nodes[i])?.kind.can_aggregate();
        if aggregation && can_agg && c > 1 {
            c = 1;
        }
        carried[i] = c;
    }
    scratch.give_back_tree_bufs(bufs);
    Ok(carried)
}

/// Smallest `residual / copies` over the tree's edges: the feasible uniform
/// per-update rate, `copies` by tree position (empty: one everywhere).
fn feasible_rate(snap: &NetworkSnapshot, tree: &SteinerTree, copies: &[u32], demand: f64) -> f64 {
    let mut rate = demand;
    for (i, _, l) in tree.edges() {
        let c = f64::from(copies_at(copies, i).max(1));
        let residual = snap.net().residual_min_gbps(l);
        rate = rate.min(residual / c);
    }
    rate
}

impl Scheduler for FlexibleMst {
    fn name(&self) -> &'static str {
        if self.aggregation {
            "flexible-mst"
        } else {
            "flexible-mst-noagg"
        }
    }

    fn propose(
        &self,
        task: &AiTask,
        selected: &[NodeId],
        snap: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> Result<Proposal> {
        if selected.is_empty() {
            return Err(SchedError::NothingSelected(task.id));
        }
        let (broadcast_tree, upload_tree) = self
            .build_trees(task, selected, snap, scratch)
            .map_err(|e| match e {
                flexsched_topo::TopoError::Disconnected { to, .. } => SchedError::Unreachable {
                    task: task.id,
                    site: to,
                },
                other => SchedError::Topo(other),
            })?;
        self.finish(task, selected, snap, broadcast_tree, upload_tree, scratch)
    }

    fn propose_repair(
        &self,
        task: &AiTask,
        current: &Schedule,
        snapshot: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> Result<Option<crate::repair::RepairProposal>> {
        crate::repair::repair_schedule(self, task, current, snapshot, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_compute::ModelProfile;
    use flexsched_simnet::NetworkState;
    use flexsched_task::TaskId;
    use flexsched_topo::algo::{steiner_tree_in, ClosureStats, CoreBufs, SearchWork};
    use flexsched_topo::builders;
    use std::sync::Arc;

    /// The global model on the metro's first server, `locals` local models
    /// on the next ones.
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

    fn schedule_with(sched: &FlexibleMst, state: &NetworkState, task: &AiTask) -> Schedule {
        let snap = NetworkSnapshot::capture(state);
        sched
            .propose_once(task, &task.local_sites, &snap)
            .unwrap()
            .schedule
    }

    #[test]
    fn produces_tree_plans_spanning_all_locals() {
        let (state, task) = task_on_metro(6);
        let s = schedule_with(&FlexibleMst::paper(), &state, &task);
        match (&s.broadcast, &s.upload) {
            (RoutingPlan::Tree { tree: b, .. }, RoutingPlan::Tree { tree: u, .. }) => {
                assert!(b.spans_all_terminals());
                assert!(u.spans_all_terminals());
                assert_eq!(b.root, task.global_site);
            }
            _ => panic!("flexible must produce tree plans"),
        }
    }

    #[test]
    fn uses_less_bandwidth_than_fixed() {
        use crate::fixed::FixedSpff;
        for n in [5, 10, 15] {
            let (state, task) = task_on_metro(n);
            let snap = NetworkSnapshot::capture(&state);
            let flex = schedule_with(&FlexibleMst::paper(), &state, &task);
            let fixed = FixedSpff
                .propose_once(&task, &task.local_sites, &snap)
                .unwrap()
                .schedule;
            let bf = flex.total_bandwidth_gbps(state.topo()).unwrap();
            let bx = fixed.total_bandwidth_gbps(state.topo()).unwrap();
            assert!(bf < bx, "n={n}: flexible {bf} !< fixed {bx}");
        }
    }

    #[test]
    fn bandwidth_saturates_with_locals() {
        // Tree bandwidth growth slows: the increment from 12->15 locals is
        // smaller than from 3->6.
        let bw = |n: usize| {
            let (state, task) = task_on_metro(n);
            schedule_with(&FlexibleMst::paper(), &state, &task)
                .total_bandwidth_gbps(state.topo())
                .unwrap()
        };
        let (b3, b6, b12, b15) = (bw(3), bw(6), bw(12), bw(15));
        assert!(
            b6 - b3 > b15 - b12,
            "growth must flatten: {b3} {b6} {b12} {b15}"
        );
    }

    #[test]
    fn upload_copies_collapse_at_routers() {
        let (state, task) = task_on_metro(8);
        let s = schedule_with(&FlexibleMst::paper(), &state, &task);
        if let RoutingPlan::Tree { tree, copies, .. } = &s.upload {
            assert_eq!(copies.len(), tree.nodes.len());
            for (n, c) in tree.nodes.iter().zip(copies) {
                if *n == tree.root {
                    continue;
                }
                let kind = state.topo().node(*n).unwrap().kind;
                if kind.can_aggregate() {
                    assert!(*c <= 1, "aggregating node {n} forwards {c} copies");
                }
            }
        } else {
            panic!("expected tree plan");
        }
    }

    #[test]
    fn no_aggregation_ablation_costs_more_bandwidth() {
        let (state, task) = task_on_metro(10);
        let with = schedule_with(&FlexibleMst::paper(), &state, &task);
        let without = schedule_with(&FlexibleMst::without_aggregation(), &state, &task);
        let bw = with.total_bandwidth_gbps(state.topo()).unwrap();
        let bwo = without.total_bandwidth_gbps(state.topo()).unwrap();
        assert!(bwo > bw, "no-agg {bwo} !> agg {bw}");
        assert_eq!(without.scheduler, "flexible-mst-noagg");
    }

    #[test]
    fn schedule_applies_and_releases() {
        let (mut state, task) = task_on_metro(10);
        let s = schedule_with(&FlexibleMst::paper(), &state, &task);
        s.apply(&mut state).unwrap();
        assert!(state.total_reserved_gbps() > 0.0);
        s.release(&mut state).unwrap();
        assert!(state.total_reserved_gbps().abs() < 1e-9);
    }

    #[test]
    fn proposing_mutates_nothing() {
        let (state, task) = task_on_metro(8);
        let version = state.version();
        let _ = schedule_with(&FlexibleMst::paper(), &state, &task);
        assert_eq!(state.version(), version);
        assert!(state.total_reserved_gbps().abs() < 1e-12);
    }

    #[test]
    fn aggregation_points_are_middle_and_final_nodes() {
        let (state, task) = task_on_metro(10);
        let s = schedule_with(&FlexibleMst::paper(), &state, &task);
        let pts = s.aggregation_points(state.topo());
        assert!(pts.contains(&task.global_site), "final node aggregates");
        assert!(pts.len() > 1, "middle nodes must aggregate too");
    }

    #[test]
    fn routes_around_down_links() {
        let (mut state, task) = task_on_metro(5);
        state.set_down(flexsched_topo::LinkId(0), true).unwrap();
        let s = schedule_with(&FlexibleMst::paper(), &state, &task);
        for (dl, _) in s.reservations(state.topo()).unwrap() {
            assert_ne!(dl.link, flexsched_topo::LinkId(0));
        }
    }

    #[test]
    fn empty_selection_rejected() {
        let (state, task) = task_on_metro(3);
        let snap = NetworkSnapshot::capture(&state);
        assert!(matches!(
            FlexibleMst::paper().propose_once(&task, &[], &snap),
            Err(SchedError::NothingSelected(_))
        ));
    }

    #[test]
    fn default_spans_hundreds_of_locals_with_acyclic_trees() {
        // 100- and 200-local decisions on a fat-tree must span every
        // terminal with an acyclic tree.
        let topo = Arc::new(flexsched_topo::builders::fat_tree(10, 400.0));
        let state = NetworkState::new(Arc::clone(&topo));
        let servers = topo.servers();
        for locals in [100usize, 200] {
            let task = AiTask {
                id: TaskId(0),
                model: ModelProfile::mobilenet(),
                global_site: servers[0],
                local_sites: servers[1..=locals].to_vec(),
                data_utility: Default::default(),
                iterations: 1,
                comm_budget_ms: 50.0,
                arrival_ns: 0,
                class: Default::default(),
            };
            let s = schedule_with(&FlexibleMst::default(), &state, &task);
            for plan in [&s.broadcast, &s.upload] {
                let RoutingPlan::Tree { tree, .. } = plan else {
                    panic!("expected tree plans");
                };
                assert!(tree.spans_all_terminals(), "k={locals}");
                assert_eq!(tree.links.len(), tree.nodes.len() - 1, "k={locals}");
            }
        }
    }

    #[test]
    fn headroom_steers_trees_toward_free_spectrum() {
        use flexsched_optical::OpticalState;
        use flexsched_topo::{NodeKind, Path, Topology};
        // G - r - (two parallel WDM fibers) - r2 - L: identical spans, but
        // one fiber has 3 of its 4 wavelengths lit. With headroom steering
        // the tree must pick the empty fiber; the paper's binary weight is
        // free to pick either (it takes the lower link id).
        let mut t = Topology::new();
        let g = t.add_node(NodeKind::Server, "G");
        let r1 = t.add_node(NodeKind::IpRouter, "r1");
        let o1 = t.add_node(NodeKind::Roadm, "o1");
        let o2 = t.add_node(NodeKind::Roadm, "o2");
        let r2 = t.add_node(NodeKind::IpRouter, "r2");
        let l = t.add_node(NodeKind::Server, "L");
        t.add_link(g, r1, 0.1, 400.0).unwrap();
        t.add_wdm_link(r1, o1, 0.1, 400.0, 4).unwrap();
        let crowded = t.add_wdm_link(o1, o2, 10.0, 400.0, 4).unwrap();
        let empty = t.add_wdm_link(o1, o2, 10.0, 400.0, 4).unwrap();
        t.add_wdm_link(o2, r2, 0.1, 400.0, 4).unwrap();
        t.add_link(r2, l, 0.1, 400.0).unwrap();
        let topo = Arc::new(t);
        let state = NetworkState::new(Arc::clone(&topo));
        let mut opt = OpticalState::new(Arc::clone(&topo));
        let hop = Path::new(vec![o1, o2], vec![crowded]).unwrap();
        for _ in 0..3 {
            opt.establish(hop.clone()).unwrap();
        }
        let task = AiTask {
            id: TaskId(0),
            model: ModelProfile::mobilenet(),
            global_site: g,
            local_sites: vec![l],
            data_utility: Default::default(),
            iterations: 1,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        let snap = NetworkSnapshot::capture(&state).with_optical(&opt);
        let aware = FlexibleMst::default()
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap()
            .schedule;
        if let RoutingPlan::Tree { tree, .. } = &aware.broadcast {
            assert!(
                tree.links.contains(&empty) && !tree.links.contains(&crowded),
                "headroom-aware tree must take the empty fiber: {:?}",
                tree.links
            );
        } else {
            panic!("expected tree plan");
        }
    }

    /// Both plans tree plans, equal tree for tree, rate for rate and copy
    /// count for copy count.
    fn assert_same_trees_rates_and_copies(a: &Schedule, b: &Schedule, what: &str) {
        for (pa, pb, proc_name) in [
            (&a.broadcast, &b.broadcast, "broadcast"),
            (&a.upload, &b.upload, "upload"),
        ] {
            let (
                RoutingPlan::Tree {
                    tree: ta,
                    rate_gbps: ra,
                    copies: ca,
                },
                RoutingPlan::Tree {
                    tree: tb,
                    rate_gbps: rb,
                    copies: cb,
                },
            ) = (pa, pb)
            else {
                panic!("{what}: both schedules must carry tree plans");
            };
            assert_eq!(**ta, **tb, "{what}: {proc_name} trees diverge");
            assert_eq!(ra.to_bits(), rb.to_bits(), "{what}: {proc_name} rates");
            assert_eq!(ca, cb, "{what}: {proc_name} copies");
        }
    }

    fn tree_links(s: &Schedule) -> (Vec<LinkId>, Vec<LinkId>) {
        let (RoutingPlan::Tree { tree: b, .. }, RoutingPlan::Tree { tree: u, .. }) =
            (&s.broadcast, &s.upload)
        else {
            panic!("expected tree plans");
        };
        (b.links.clone(), u.links.clone())
    }

    /// A propose built the old way: each tree priced by its own closure,
    /// one `auxiliary_weight` call per fabric link per tree — no terminal
    /// core — through the closure-based entry point.
    fn reference_propose(sched: &FlexibleMst, task: &AiTask, snap: &NetworkSnapshot) -> Proposal {
        let (demand, gamma) = (task.demand_gbps(), sched.wavelength_headroom);
        let mut pool = ScratchPool::new();
        let mut tree = |reused: &[LinkId]| {
            let weight =
                |l: &flexsched_topo::Link| auxiliary_weight(snap, demand, reused, l, gamma);
            let (topo, root, locals) = (snap.topo(), task.global_site, &task.local_sites);
            Arc::new(steiner_tree_in(topo, root, locals, weight, &mut pool).unwrap())
        };
        let broadcast = tree(&[]);
        let upload = tree(&broadcast.links);
        sched
            .finish(task, &task.local_sites, snap, broadcast, upload, &mut pool)
            .unwrap()
    }

    /// Priced-once differential on `topo`: with an optical view attached
    /// (a few wavelengths lit), one link down, one saturated and background
    /// reservations, the patched upload vector equals `auxiliary_weight`
    /// evaluated on every link of the terminal core, and `propose` equals
    /// [`reference_propose`].
    fn check_priced_once(topo: flexsched_topo::Topology, locals: usize) {
        use flexsched_optical::OpticalState;
        use flexsched_simnet::DirLink;
        use flexsched_topo::{Direction, NodeKind, Path};

        let topo = Arc::new(topo);
        let mut state = NetworkState::new(Arc::clone(&topo));
        let mut opt = OpticalState::new(Arc::clone(&topo));
        // ROADM-to-ROADM fibers sit on rings with chords, so losing two of
        // them strands no server.
        let fibers: Vec<&flexsched_topo::Link> = topo
            .links()
            .iter()
            .filter(|l| {
                [l.a, l.b]
                    .iter()
                    .all(|n| topo.node(*n).unwrap().kind == NodeKind::Roadm)
            })
            .collect();
        let (down, saturated) = (fibers[0], fibers[1]);
        state.set_down(down.id, true).unwrap();
        state
            .add_background(
                DirLink::new(saturated.id, Direction::AtoB),
                saturated.capacity_gbps,
            )
            .unwrap();
        for l in topo.links().iter().skip(2).step_by(7) {
            if l.id != down.id && l.id != saturated.id {
                state
                    .reserve(DirLink::new(l.id, Direction::AtoB), 5.0)
                    .unwrap();
            }
        }
        let mut lit = 0;
        for f in fibers.iter().skip(2).step_by(3).take(6) {
            let hop = Path::new(vec![f.a, f.b], vec![f.id]).unwrap();
            lit += usize::from(opt.establish(hop).is_ok());
        }
        assert!(lit > 0, "the optical view must not be blank");

        let servers = topo.servers();
        let stride = (servers.len() - 1) / locals;
        let task = AiTask {
            id: TaskId(0),
            model: ModelProfile::mobilenet(),
            global_site: servers[0],
            local_sites: (0..locals).map(|i| servers[1 + i * stride]).collect(),
            data_utility: Default::default(),
            iterations: 1,
            comm_budget_ms: 50.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        let snap = NetworkSnapshot::capture(&state).with_optical(&opt);
        let sched = FlexibleMst::default();
        let want = reference_propose(&sched, &task, &snap);

        // The patched vector, for the reuse set a propose presents and for
        // one that also holds the links whose verdict `reused` flips: inside
        // the terminal core it is `auxiliary_weight`, outside it infinite.
        let demand = task.demand_gbps();
        let mut core_bufs = CoreBufs::default();
        let core =
            terminal_core(&topo, task.global_site, &task.local_sites, &mut core_bufs).unwrap();
        assert!(
            core.links().count() < topo.link_count(),
            "the core must leave links out"
        );
        let in_core = |l: &flexsched_topo::Link| core.contains(l.a) && core.contains(l.b);
        let mut base = vec![f64::INFINITY; topo.link_count()];
        sched.price_fabric(&snap, demand, core.links(), &mut base);
        let RoutingPlan::Tree { tree, .. } = &want.schedule.broadcast else {
            panic!("expected a tree plan");
        };
        let tree_links = tree.links.clone();
        let mut with_dead = tree_links.clone();
        with_dead.extend([down.id, saturated.id]);
        with_dead.sort_unstable();
        with_dead.dedup();
        for reused in [&tree_links, &with_dead] {
            let mut patched = base.clone();
            sched.reprice_reused(&snap, demand, reused, &mut patched);
            let direct = topo.links().iter().map(|l| {
                if in_core(l) {
                    auxiliary_weight(&snap, demand, reused, l, sched.wavelength_headroom)
                } else {
                    f64::INFINITY
                }
            });
            for (l, (p, d)) in patched.iter().zip(direct).enumerate() {
                assert_eq!(
                    p.to_bits(),
                    d.to_bits(),
                    "link {l}: patched {p} vs direct {d}"
                );
            }
            assert!(
                reused.iter().any(|l| patched[l.index()] != base[l.index()]),
                "the reuse discount must move some weight"
            );
        }

        // Three proposes on one pool, every one equal to the reference: two
        // solves each.
        let mut pool = ScratchPool::new();
        for round in 0..3 {
            let got = sched
                .propose(&task, &task.local_sites, &snap, &mut pool)
                .unwrap();
            let what = format!("round {round}");
            assert_same_trees_rates_and_copies(&got.schedule, &want.schedule, &what);
            let versions = |p: &Proposal| (p.snapshot_version, p.optical_version);
            assert_eq!(versions(&got), versions(&want), "{what}: versions");
        }
        let want_stats = ClosureStats {
            full_solves: 6,
            ..Default::default()
        };
        assert_eq!(pool.closure_stats(), want_stats);
    }

    #[test]
    fn priced_once_matches_per_tree_closures_on_metro() {
        check_priced_once(builders::metro(&builders::MetroParams::default()), 6);
    }

    #[test]
    fn priced_once_matches_per_tree_closures_on_backbone_sparse() {
        let topo =
            builders::backbone(&builders::BackboneParams::default().with_target_links(2_000));
        assert!((1_500..4_000).contains(&topo.link_count()));
        check_priced_once(topo, 16);
    }

    #[test]
    fn warm_pool_proposals_match_cold_pool_proposals_across_mutations() {
        // One pool reused across snapshots whose weights keep moving —
        // reservations, then a tree link failing and coming back, as the DAG
        // driver's restoration re-propose sees it — must propose exactly
        // what a fresh pool does: nothing of an earlier solve survives in
        // the recycled scratches.
        let (mut state, task) = task_on_metro(15);
        let sched = FlexibleMst::default();
        let mut warm_pool = ScratchPool::new();
        let mut check = |state: &NetworkState, what: &str| {
            let snap = NetworkSnapshot::capture(state);
            let warm = sched
                .propose(&task, &task.local_sites, &snap, &mut warm_pool)
                .unwrap();
            let cold = sched
                .propose(&task, &task.local_sites, &snap, &mut ScratchPool::new())
                .unwrap();
            assert_same_trees_rates_and_copies(&warm.schedule, &cold.schedule, what);
            let versions = |p: &Proposal| (p.snapshot_version, p.optical_version);
            assert_eq!(versions(&warm), versions(&cold), "{what}: versions");
            warm
        };
        for round in 0..4u32 {
            check(&state, &format!("round {round}"));
            // Perturb a few links' residuals for the next round.
            for raw in [round * 3, round * 3 + 1, round * 3 + 2] {
                let l = LinkId(raw % state.topo().link_count() as u32);
                let dl = flexsched_simnet::DirLink::new(l, flexsched_topo::Direction::AtoB);
                state.reserve(dl, 5.0).unwrap();
            }
        }
        let before = check(&state, "before the outage");
        // A ROADM-to-ROADM fiber of the tree: the rings route around it.
        let topo = state.topo_arc();
        let is_roadm = |n: NodeId| topo.node(n).unwrap().kind == flexsched_topo::NodeKind::Roadm;
        let cut = *tree_links(&before.schedule)
            .0
            .iter()
            .find(|l| {
                let link = topo.link(**l).unwrap();
                is_roadm(link.a) && is_roadm(link.b)
            })
            .expect("the broadcast tree crosses the optical ring");
        state.set_down(cut, true).unwrap();
        let during = check(&state, "link down");
        assert!(!tree_links(&during.schedule).0.contains(&cut));
        state.set_down(cut, false).unwrap();
        let after = check(&state, "link restored");
        assert_eq!(
            tree_links(&after.schedule),
            tree_links(&before.schedule),
            "restoring the link restores the decision"
        );
    }

    #[test]
    fn closure_stats_count_exactly_the_non_trivial_sparse_solves() {
        // The contract the benchmark adapter reads off
        // `ScratchPool::closure_stats()`.
        let (state, task) = task_on_metro(15);
        let snap = NetworkSnapshot::capture(&state);
        let sched = FlexibleMst::default();
        let mut pool = ScratchPool::new();
        let solves = |pool: &ScratchPool| {
            let s = pool.closure_stats();
            assert_eq!((s.hits, s.repairs, s.fallbacks), (0, 0, 0));
            s.full_solves
        };
        sched
            .propose(&task, &task.local_sites, &snap, &mut pool)
            .unwrap();
        assert_eq!(solves(&pool), 2, "broadcast + upload tree");
        // Root-only terminal set: the trivial tree is no solve.
        let root_only = vec![task.global_site; 12];
        sched.propose(&task, &root_only, &snap, &mut pool).unwrap();
        assert_eq!(solves(&pool), 2);
        // The poster configuration builds its two trees the same way.
        FlexibleMst::paper()
            .propose(&task, &task.local_sites, &snap, &mut pool)
            .unwrap();
        assert_eq!(solves(&pool), 4);
    }

    #[test]
    fn a_backbone_decision_sequence_does_pinned_search_work() {
        // Exact work counts of six `FlexibleMst::default()` decisions on the
        // 20 181-link backbone, each schedule installed before the next
        // decision. Every task pins servers on metro rings at two or three
        // NSFNET sites, so the terminal core is the NSFNET block, the
        // pinned rings and their access links; the rings without a pin
        // and their servers are never priced or searched. Debug builds
        // check each decision on full-fabric pricing in a pool of their
        // own, so the counts are the same in every profile.
        let params = builders::BackboneParams::default().with_target_links(20_000);
        let topo = Arc::new(builders::backbone(&params));
        assert_eq!(topo.link_count(), 20_181);
        let mut state = NetworkState::new(Arc::clone(&topo));
        let servers = topo.servers();
        let per_metro = params.metro.core_roadms * params.metro.servers_per_router;
        let server = |site: usize, metro: usize, slot: usize| {
            let s = servers[(site * params.metros_per_site + metro) * per_metro + slot];
            assert_eq!(topo.node(s).unwrap().region, Some(site as u32));
            s
        };
        let sched = FlexibleMst::default();
        let mut pool = ScratchPool::new();
        let tasks: [(&[usize], usize); 6] = [
            (&[0, 4], 3),
            (&[2, 9, 13], 6),
            (&[5, 6], 4),
            (&[11, 3, 8], 8),
            (&[7, 12], 5),
            (&[1, 10, 4], 7),
        ];
        for (i, (sites, locals)) in tasks.into_iter().enumerate() {
            let task = AiTask {
                id: TaskId(i as u64),
                model: ModelProfile::mobilenet(),
                global_site: server(sites[0], 7 * i % 36, i),
                local_sites: (0..locals)
                    .map(|k| {
                        server(
                            sites[k % sites.len()],
                            (7 * i + 5 * k) % 36,
                            (3 * k + i) % 24,
                        )
                    })
                    .collect(),
                data_utility: Default::default(),
                iterations: 3,
                comm_budget_ms: 10.0,
                arrival_ns: 0,
                class: Default::default(),
            };
            let snap = NetworkSnapshot::capture(&state);
            let proposal = sched
                .propose(&task, &task.local_sites, &snap, &mut pool)
                .unwrap();
            proposal.schedule.apply(&mut state).unwrap();
        }
        assert_eq!(
            pool.work(),
            SearchWork {
                searches: 24,
                settled: 1_306,
                relaxed: 2_002,
                boundary_edges: 148,
                solves: 12,
                tree_nodes: 286,
                priced: 659,
                core_links: 522,
            }
        );
    }

    #[test]
    fn paper_decision_sequence_does_pinned_search_work() {
        // Exact work counts of a fixed decision sequence on the default
        // metro: six tasks of 3 to 15 locals, each schedule installed before
        // the next decision, and one fiber of the ring down for the last
        // two. Debug builds check each decision in a pool of their own, so
        // the counts are the same in every profile. A change to the counts
        // is a change to the searches' work and re-pins them with a reason.
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let mut state = NetworkState::new(Arc::clone(&topo));
        let servers = topo.servers();
        let sched = FlexibleMst::paper();
        let mut pool = ScratchPool::new();
        for (i, (global, locals)) in [(0, 3), (5, 8), (11, 15), (2, 6), (17, 12), (9, 4)]
            .into_iter()
            .enumerate()
        {
            if i == 4 {
                state.set_down(LinkId(0), true).unwrap();
            }
            let task = AiTask {
                id: TaskId(i as u64),
                model: ModelProfile::mobilenet(),
                global_site: servers[global],
                local_sites: (1..=locals)
                    .map(|k| servers[(global + 3 * k) % servers.len()])
                    .collect(),
                data_utility: Default::default(),
                iterations: 3,
                comm_budget_ms: 10.0,
                arrival_ns: 0,
                class: Default::default(),
            };
            let snap = NetworkSnapshot::capture(&state);
            let proposal = sched
                .propose(&task, &task.local_sites, &snap, &mut pool)
                .unwrap();
            proposal.schedule.apply(&mut state).unwrap();
        }
        let work = pool.work();
        assert_eq!(work.solves, pool.closure_stats().full_solves);
        assert_eq!(
            work,
            SearchWork {
                searches: 24,
                settled: 424,
                relaxed: 468,
                boundary_edges: 100,
                solves: 12,
                tree_nodes: 204,
                priced: 215,
                core_links: 119,
            }
        );
    }
}
