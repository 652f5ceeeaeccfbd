//! Schedule representation: the output of a scheduling policy.

use crate::Result;
use flexsched_simnet::{DirLink, NetworkState};
use flexsched_task::TaskId;
use flexsched_topo::algo::SteinerTree;
use flexsched_topo::{LinkId, NodeId, Path, Topology};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A path with the rate reserved on it.
#[derive(Debug, Clone, PartialEq)]
pub struct RatedPath {
    /// The route (stored in its travel direction).
    pub path: Path,
    /// Reserved rate, Gbit/s.
    pub rate_gbps: f64,
}

/// Routing for one procedure (broadcast or upload).
#[derive(Debug, Clone, PartialEq)]
pub enum RoutingPlan {
    /// Per-local end-to-end paths (fixed scheduler). Keys are local sites;
    /// broadcast paths run global→local, upload paths local→global.
    Paths(BTreeMap<NodeId, RatedPath>),
    /// A shared tree (flexible scheduler). Broadcast flows root→leaves,
    /// upload flows leaves→root with aggregation at branch nodes.
    Tree {
        /// The routing tree rooted at the global site. `Arc`-shared: a
        /// `SteinerTree` carries node, link, parent and children arrays
        /// sized to the tree, and long-lived schedules are cloned on every
        /// database read — sharing the tree makes those clones (and the
        /// broadcast-reuses-upload case) pointer bumps instead of copies of
        /// all of them.
        tree: Arc<SteinerTree>,
        /// Base rate reserved per model-update stream, Gbit/s.
        rate_gbps: f64,
        /// Model-update copies by tree position: `copies[i]` is the count
        /// on the parent edge of `tree.nodes[i]` (the root's entry is
        /// unused). Empty means one copy on every edge, the multicast
        /// broadcast tree; upload trees ([`crate::flexible::upload_copies`])
        /// carry one copy below aggregation points and more above branch
        /// nodes that cannot aggregate (e.g. all-optical ROADMs).
        copies: Vec<u32>,
    },
}

impl RoutingPlan {
    /// Directed reservations this plan needs, appended to `out`:
    /// `(link, direction, rate)` triples. `towards_root` selects the upload
    /// orientation for trees and is ignored for path plans (paths are
    /// already stored directed).
    pub(crate) fn reservations_into(
        &self,
        topo: &Topology,
        towards_root: bool,
        out: &mut Vec<(DirLink, f64)>,
    ) -> Result<()> {
        match self {
            RoutingPlan::Paths(map) => {
                for rp in map.values() {
                    for (i, l) in rp.path.links.iter().enumerate() {
                        let link = topo.link(*l)?;
                        let dir = link
                            .direction_from(rp.path.nodes[i])
                            .ok_or(flexsched_topo::TopoError::UnknownLink(*l))?;
                        out.push((DirLink::new(*l, dir), rp.rate_gbps));
                    }
                }
            }
            RoutingPlan::Tree {
                tree,
                rate_gbps,
                copies,
            } => {
                for (i, parent, l) in tree.edges() {
                    let link = topo.link(l)?;
                    // Tree edge child <-> parent: broadcast travels
                    // parent->child, upload travels child->parent.
                    let from = tree.nodes[if towards_root { i } else { parent }];
                    let dir = link
                        .direction_from(from)
                        .ok_or(flexsched_topo::TopoError::UnknownLink(l))?;
                    let c = f64::from(copies_at(copies, i).max(1));
                    out.push((DirLink::new(l, dir), *rate_gbps * c));
                }
            }
        }
        Ok(())
    }

    /// How many reservations [`reservations_into`](RoutingPlan::reservations_into)
    /// appends: one per path hop or tree link.
    fn hop_count(&self) -> usize {
        match self {
            RoutingPlan::Paths(map) => map.values().map(|rp| rp.path.links.len()).sum(),
            RoutingPlan::Tree { tree, .. } => tree.links.len(),
        }
    }

    /// Whether `pred` holds for any physical link the plan routes over.
    pub(crate) fn any_link(&self, mut pred: impl FnMut(LinkId) -> bool) -> bool {
        match self {
            RoutingPlan::Paths(map) => map
                .values()
                .any(|rp| rp.path.links.iter().any(|l| pred(*l))),
            RoutingPlan::Tree { tree, .. } => tree.links.iter().any(|l| pred(*l)),
        }
    }

    /// Smallest reserved rate anywhere in the plan (for reporting).
    pub fn min_rate_gbps(&self) -> f64 {
        match self {
            RoutingPlan::Paths(map) => map
                .values()
                .map(|rp| rp.rate_gbps)
                .fold(f64::INFINITY, f64::min),
            RoutingPlan::Tree { rate_gbps, .. } => *rate_gbps,
        }
    }
}

/// The copy count on the parent edge of the tree node at position `i`,
/// from a [`RoutingPlan::Tree`]'s `copies` (empty: one everywhere).
pub(crate) fn copies_at(copies: &[u32], i: usize) -> u32 {
    if copies.is_empty() {
        1
    } else {
        copies[i]
    }
}

/// A complete schedule for one task: routing for both procedures.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The task scheduled.
    pub task: TaskId,
    /// Producing policy name ([`crate::Scheduler::name`]).
    pub scheduler: &'static str,
    /// Global-model site (tree root / path endpoint).
    pub global_site: NodeId,
    /// Local sites actually scheduled (post-selection).
    pub selected_locals: Vec<NodeId>,
    /// Bandwidth demand the task asked for, Gbit/s.
    pub demand_gbps: f64,
    /// Broadcast-procedure routing (global → locals).
    pub broadcast: RoutingPlan,
    /// Upload-procedure routing (locals → global).
    pub upload: RoutingPlan,
}

impl Schedule {
    /// All directed reservations of both procedures.
    pub fn reservations(&self, topo: &Topology) -> Result<Vec<(DirLink, f64)>> {
        let mut r = Vec::with_capacity(self.broadcast.hop_count() + self.upload.hop_count());
        self.reservations_into(topo, &mut r)?;
        Ok(r)
    }

    /// [`reservations`](Schedule::reservations), appended to `out`.
    pub(crate) fn reservations_into(
        &self,
        topo: &Topology,
        out: &mut Vec<(DirLink, f64)>,
    ) -> Result<()> {
        self.broadcast.reservations_into(topo, false, out)?;
        self.upload.reservations_into(topo, true, out)
    }

    /// The distinct physical links both procedures route over, ascending,
    /// written into `out` (cleared first).
    pub fn links_into(&self, out: &mut Vec<LinkId>) {
        out.clear();
        for plan in [&self.broadcast, &self.upload] {
            match plan {
                RoutingPlan::Paths(map) => {
                    for rp in map.values() {
                        out.extend_from_slice(&rp.path.links);
                    }
                }
                RoutingPlan::Tree { tree, .. } => out.extend_from_slice(&tree.links),
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Total bandwidth held by this schedule (both procedures), Gbit/s·link.
    pub fn total_bandwidth_gbps(&self, topo: &Topology) -> Result<f64> {
        Ok(self.reservations(topo)?.iter().map(|(_, r)| r).sum())
    }

    /// Reservations aggregated per directed link, ascending — the shape the
    /// committer credits during a migration and claim deltas diff against.
    pub fn aggregated_reservations(&self, topo: &Topology) -> Result<Vec<(DirLink, f64)>> {
        let mut r = self.reservations(topo)?;
        r.sort_unstable_by_key(|x| x.0);
        // In place, each run's rates summed in order into its first entry.
        r.dedup_by(|next, run| {
            let same = next.0 == run.0;
            if same {
                run.1 += next.1;
            }
            same
        });
        Ok(r)
    }

    /// Reserve every directed hop on the network state, all-or-nothing
    /// ([`NetworkState::reserve_all`]).
    ///
    /// This is the *mechanism* of storing a schedule, not a policy entry
    /// point: live state is only ever reserved by the orchestrator's
    /// database, as it stores a schedule whose claims the committer
    /// validated. Schedulers never call this; rescheduling calls it on its
    /// private hypothetical copy only.
    pub fn apply(&self, state: &mut NetworkState) -> Result<()> {
        Ok(state.reserve_all(self.reservations(state.topo())?)?)
    }

    /// Release every directed hop previously applied, in
    /// [`reservations`](Schedule::reservations) order — on live state, as
    /// the orchestrator's database takes the schedule out.
    pub fn release(&self, state: &mut NetworkState) -> Result<()> {
        for (dl, rate) in self.reservations(state.topo())? {
            state.release(dl, rate)?;
        }
        Ok(())
    }

    /// Aggregation points of the upload plan: aggregation-capable branch
    /// nodes for trees (paper: "the middle and final nodes"), or just the
    /// global site for path plans (baseline aggregates only at G).
    pub fn aggregation_points(&self, topo: &Topology) -> Vec<NodeId> {
        match &self.upload {
            RoutingPlan::Paths(_) => vec![self.global_site],
            RoutingPlan::Tree { tree, .. } => tree
                .aggregation_points()
                .into_iter()
                .filter(|n| {
                    topo.node(*n)
                        .map(|node| node.kind.can_aggregate())
                        .unwrap_or(false)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsched_topo::algo::{hop_weight, shortest_path, steiner_tree};
    use flexsched_topo::builders;
    use std::sync::Arc;

    fn rig() -> (Arc<Topology>, NetworkState) {
        let topo = Arc::new(builders::star(4, 1.0, 100.0));
        let state = NetworkState::new(Arc::clone(&topo));
        (topo, state)
    }

    /// Build a fixed-style schedule on a star: G = server 1, locals 2..4.
    fn fixed_schedule(topo: &Topology, rate: f64) -> Schedule {
        let g = NodeId(1);
        let locals = [NodeId(2), NodeId(3), NodeId(4)];
        let mut bcast = BTreeMap::new();
        let mut up = BTreeMap::new();
        for l in locals {
            let down = shortest_path(topo, g, l, hop_weight).unwrap();
            let upp = down.reversed();
            bcast.insert(
                l,
                RatedPath {
                    path: down,
                    rate_gbps: rate,
                },
            );
            up.insert(
                l,
                RatedPath {
                    path: upp,
                    rate_gbps: rate,
                },
            );
        }
        Schedule {
            task: TaskId(0),
            scheduler: "fixed-test",
            global_site: g,
            selected_locals: locals.to_vec(),
            demand_gbps: rate,
            broadcast: RoutingPlan::Paths(bcast),
            upload: RoutingPlan::Paths(up),
        }
    }

    /// Build a tree-style schedule on the same star. Broadcast and upload
    /// share one `Arc`'d tree, as the flexible scheduler's shared-tree mode
    /// does.
    fn tree_schedule(topo: &Topology, rate: f64) -> Schedule {
        let g = NodeId(1);
        let locals = vec![NodeId(2), NodeId(3), NodeId(4)];
        let tree = Arc::new(steiner_tree(topo, g, &locals, hop_weight).unwrap());
        Schedule {
            task: TaskId(1),
            scheduler: "flex-test",
            global_site: g,
            selected_locals: locals,
            demand_gbps: rate,
            broadcast: RoutingPlan::Tree {
                tree: Arc::clone(&tree),
                rate_gbps: rate,
                copies: Vec::new(),
            },
            upload: RoutingPlan::Tree {
                tree,
                rate_gbps: rate,
                copies: Vec::new(),
            },
        }
    }

    #[test]
    fn fixed_bandwidth_counts_every_path_hop() {
        let (topo, _) = rig();
        let s = fixed_schedule(&topo, 10.0);
        // 3 locals × 2 hops × 2 procedures × 10 Gbps = 120.
        assert!((s.total_bandwidth_gbps(&topo).unwrap() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn tree_bandwidth_counts_each_edge_once_per_procedure() {
        let (topo, _) = rig();
        let s = tree_schedule(&topo, 10.0);
        // Star tree: 4 edges (hub + 3 leaves... G-hub + hub-l2,3,4) × 2 × 10.
        assert!((s.total_bandwidth_gbps(&topo).unwrap() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn tree_beats_paths_on_bandwidth() {
        let (topo, _) = rig();
        let fixed = fixed_schedule(&topo, 10.0);
        let tree = tree_schedule(&topo, 10.0);
        assert!(
            tree.total_bandwidth_gbps(&topo).unwrap() < fixed.total_bandwidth_gbps(&topo).unwrap()
        );
    }

    #[test]
    fn apply_then_release_round_trips() {
        let (topo, mut state) = rig();
        let s = fixed_schedule(&topo, 10.0);
        s.apply(&mut state).unwrap();
        assert!((state.total_reserved_gbps() - 120.0).abs() < 1e-9);
        s.release(&mut state).unwrap();
        assert!(state.total_reserved_gbps().abs() < 1e-9);
    }

    #[test]
    fn apply_is_atomic_under_shortage() {
        let (topo, mut state) = rig();
        // The hub->G link (shared by all upload paths as last hop) carries
        // 3 flows of 40 G = 120 > 100: apply must fail and roll back.
        let s = fixed_schedule(&topo, 40.0);
        assert!(s.apply(&mut state).is_err());
        assert!(state.total_reserved_gbps().abs() < 1e-9, "rollback leaked");
    }

    #[test]
    fn directions_let_broadcast_and_upload_coexist() {
        let (topo, mut state) = rig();
        // 34 G each way saturates neither direction alone (100 G cap).
        let s = fixed_schedule(&topo, 30.0);
        s.apply(&mut state).unwrap();
        s.release(&mut state).unwrap();
    }

    #[test]
    fn aggregation_points_differ_by_plan() {
        let (topo, _) = rig();
        let fixed = fixed_schedule(&topo, 1.0);
        assert_eq!(fixed.aggregation_points(&topo), vec![NodeId(1)]);
        let tree = tree_schedule(&topo, 1.0);
        let pts = tree.aggregation_points(&topo);
        assert!(pts.contains(&NodeId(1)), "root aggregates");
        assert!(
            pts.contains(&NodeId(0)),
            "hub is a branch aggregation point"
        );
    }

    #[test]
    fn footprint_counts_distinct_links() {
        let (topo, _) = rig();
        let fixed = fixed_schedule(&topo, 1.0);
        // Paths G-hub-Li touch links: (G,hub), (hub,l2), (hub,l3), (hub,l4).
        let mut links = Vec::new();
        fixed.links_into(&mut links);
        assert_eq!(links.len(), 4);
        tree_schedule(&topo, 1.0).links_into(&mut links);
        assert_eq!(links.len(), 4);
    }

    #[test]
    fn links_are_the_distinct_reserved_links() {
        let (topo, _) = rig();
        for s in [fixed_schedule(&topo, 1.0), tree_schedule(&topo, 1.0)] {
            let mut want: Vec<LinkId> = s
                .reservations(&topo)
                .unwrap()
                .iter()
                .map(|r| r.0.link)
                .collect();
            want.sort_unstable();
            want.dedup();
            let mut links = vec![LinkId(99)];
            s.links_into(&mut links);
            assert_eq!(links, want);
        }
    }

    #[test]
    fn min_rate_reports_weakest_flow() {
        let (topo, _) = rig();
        let mut s = fixed_schedule(&topo, 10.0);
        if let RoutingPlan::Paths(map) = &mut s.broadcast {
            map.get_mut(&NodeId(2)).unwrap().rate_gbps = 2.5;
        }
        assert!((s.broadcast.min_rate_gbps() - 2.5).abs() < 1e-12);
    }
}
