//! Incremental Steiner-tree repair: fix the broken subtree, keep the rest.
//!
//! The poster's rescheduling loop re-runs the full scheduler for every
//! candidate task on every fault or load change — two Steiner
//! constructions (two whole-fabric searches each, plus closure MST,
//! expansion and pruning) per decision. But a link fault rarely invalidates
//! a whole tree: it orphans one subtree. Repair exploits that:
//!
//! 1. **Detach.** Walk the stored [`SteinerTree`] from the root, stopping
//!    at broken edges: the surviving fragment stays, the orphaned terminals
//!    fall out, and dangling non-terminal chains are pruned.
//! 2. **Re-attach.** One *multi-source* Dijkstra — every surviving tree
//!    node is a zero-cost source — finds, under the same auxiliary weights
//!    a fresh decision would use, the cheapest attachment path from the
//!    surviving frontier to every orphaned terminal. Shared path segments
//!    merge for free because the attachment paths come from one
//!    shortest-path forest.
//! 3. **Re-rate.** Upload copies and the uniform feasible rate are
//!    recomputed over the repaired tree, *crediting* the task's own live
//!    reservations (repair proposes against the live snapshot, so the
//!    task's current claims are capacity it gets back at migration time).
//!
//! The output is a [`RepairProposal`]: a full replacement [`Proposal`]
//! plus the [`ClaimsDelta`] proving the repair touched only the changed
//! links.

use crate::error::BlockReason;
use crate::flexible::{upload_copies, FlexibleMst};
use crate::proposal::{ClaimsDelta, Proposal};
use crate::schedule::{copies_at, RoutingPlan, Schedule};
use crate::snapshot::NetworkSnapshot;
use crate::weights::auxiliary_weight;
use crate::{Result, SchedError};
use flexsched_optical::OpticalState;
use flexsched_simnet::{DirLink, NetworkState};
use flexsched_task::AiTask;
use flexsched_topo::algo::{ScratchPool, SteinerTree};
use flexsched_topo::{LinkId, NodeId, Topology};
use std::sync::Arc;

/// The set of links a repair must route around: hard faults (link down)
/// plus, when an optical view is attached, spectrally dead fibers (no free
/// wavelength and no groomable headroom for the task's demand).
#[derive(Debug, Clone)]
pub(crate) struct BrokenLinks {
    mask: Vec<bool>,
    count: usize,
}

impl BrokenLinks {
    /// No broken links over a topology of `link_count` links.
    pub(crate) fn none(link_count: usize) -> Self {
        BrokenLinks {
            mask: vec![false; link_count],
            count: 0,
        }
    }

    /// Mark one more link broken.
    pub(crate) fn insert(&mut self, link: LinkId) {
        if let Some(slot) = self.mask.get_mut(link.index()) {
            if !*slot {
                *slot = true;
                self.count += 1;
            }
        }
    }

    /// Whether `link` is broken.
    #[inline]
    pub(crate) fn contains(&self, link: LinkId) -> bool {
        self.mask.get(link.index()).copied().unwrap_or(false)
    }

    /// Whether any link is broken.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// One repaired tree, plus (in unit tests) the surgery record.
#[derive(Debug)]
pub(crate) struct TreeRepair {
    /// The repaired tree (same root and terminal set as the original).
    pub tree: Arc<SteinerTree>,
    /// Orphaned terminals that were re-attached via the frontier search,
    /// each paired with its *anchor*: the surviving-tree node whose
    /// Voronoi region the orphan fell into (read straight off the
    /// multi-source search's per-node labels — the same Voronoi machinery
    /// the Mehlhorn sparsified closure runs, sharing one scratch pool).
    /// Only the tests read it, so only they record it.
    #[cfg(test)]
    pub reattached: Vec<(NodeId, NodeId)>,
}

/// Repair one tree against a broken-link set.
///
/// `weight` is the auxiliary weight a fresh decision would use, evaluated
/// on demand during the frontier search (it must price every broken link at
/// `f64::INFINITY` — the snapshot-derived weights do, since broken means
/// down or spectrally dead). Returns `Ok(None)` when no tree edge is
/// broken; the tree needs no surgery.
///
/// # Errors
/// [`SchedError::Unreachable`] when some orphaned terminal cannot be
/// re-attached under finite weights (the caller falls back to a full
/// re-solve, which will fail too, or blocks the task).
pub(crate) fn repair_tree(
    topo: &Topology,
    old: &SteinerTree,
    broken: &BrokenLinks,
    weight: impl Fn(LinkId) -> f64,
    task: &AiTask,
    pool: &mut ScratchPool,
) -> Result<Option<TreeRepair>> {
    if !old.links.iter().any(|l| broken.contains(*l)) {
        return Ok(None);
    }
    let mut bufs = pool.take_tree_bufs();
    let result = repair_tree_in(topo, old, broken, weight, task, pool, &mut bufs);
    pool.give_back_tree_bufs(bufs);
    result
}

fn repair_tree_in(
    topo: &Topology,
    old: &SteinerTree,
    broken: &BrokenLinks,
    weight: impl Fn(LinkId) -> f64,
    task: &AiTask,
    pool: &mut ScratchPool,
    bufs: &mut flexsched_topo::algo::TreeBufs,
) -> Result<Option<TreeRepair>> {
    let n = topo.node_count();

    // Detach: BFS from the root along unbroken tree edges only. All work
    // arrays are drawn from the pooled buffers — a fault storm makes many
    // repair decisions back to back and must not hit the allocator for
    // each one (only `parent` allocates: it is owned by the result tree).
    let alive = &mut bufs.mask;
    alive.clear();
    alive.resize(n, false);
    alive[old.root.index()] = true;
    let queue = &mut bufs.queue;
    queue.clear();
    queue.push(old.root);
    let mut head = 0;
    while head < queue.len() {
        let node = queue[head];
        head += 1;
        for child in old.children_of(node) {
            let (_, l) = old
                .parent_of(*child)
                .expect("child of a tree node has a parent edge");
            if !broken.contains(l) {
                alive[child.index()] = true;
                queue.push(*child);
            }
        }
    }

    // Surviving parent pointers, then prune dangling non-terminal chains
    // that used to lead into the orphaned subtree.
    let mut parent: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let child_count = &mut bufs.counts;
    child_count.clear();
    child_count.resize(n, 0);
    for node in &old.nodes {
        if alive[node.index()] && *node != old.root {
            let p = old.parent_of(*node).expect("non-root tree node");
            parent[node.index()] = Some(p);
            child_count[p.0.index()] += 1;
        }
    }
    let keep = &mut bufs.keep;
    keep.clear();
    keep.resize(n, false);
    keep[old.root.index()] = true;
    for t in &old.terminals {
        keep[t.index()] = true;
    }
    let prune = queue; // detach BFS is done; reuse its storage as a stack
    prune.clear();
    prune.extend(
        old.nodes
            .iter()
            .copied()
            .filter(|x| alive[x.index()] && child_count[x.index()] == 0 && !keep[x.index()]),
    );
    while let Some(leaf) = prune.pop() {
        let Some((p, _)) = parent[leaf.index()].take() else {
            continue;
        };
        alive[leaf.index()] = false;
        child_count[p.index()] -= 1;
        if child_count[p.index()] == 0 && !keep[p.index()] && alive[p.index()] && p != old.root {
            prune.push(p);
        }
    }

    // Re-attach every orphaned terminal via one multi-source search from
    // the surviving frontier — the same Voronoi-labeled pass the Mehlhorn
    // sparsified closure runs (`topo::algo::mehlhorn`), drawn from the
    // same scratch pool: every surviving node is a zero-cost source, and
    // each orphan's label names the source (its attachment anchor) whose
    // region it fell into.
    let mut orphans: Vec<NodeId> = old
        .terminals
        .iter()
        .copied()
        .filter(|t| *t != old.root && !alive[t.index()])
        .collect();
    orphans.sort_unstable();
    orphans.dedup();
    #[cfg(test)]
    let mut reattached = Vec::with_capacity(orphans.len());
    if !orphans.is_empty() {
        let sources = &mut bufs.nodes;
        sources.clear();
        sources.extend((0..n as u32).map(NodeId).filter(|x| alive[x.index()]));
        let mut scratch = pool.take();
        let searched = scratch.run_multi(topo, sources, &weight, Some(&orphans));
        let outcome = searched.map_err(SchedError::Topo).and_then(|()| {
            for t in &orphans {
                if !scratch.reachable(*t) {
                    return Err(SchedError::Unreachable {
                        task: task.id,
                        site: *t,
                    });
                }
            }
            for t in &orphans {
                let anchor = sources[scratch
                    .voronoi_label(*t)
                    .expect("settled orphan carries a Voronoi label")
                    as usize];
                debug_assert!(alive[anchor.index()], "anchor is a surviving node");
                let mut cur = *t;
                while !alive[cur.index()] {
                    let (p, l) = scratch
                        .parent_of(cur)
                        .expect("reachable non-source node has a search parent");
                    parent[cur.index()] = Some((p, l));
                    alive[cur.index()] = true;
                    cur = p;
                }
                #[cfg(test)]
                reattached.push((*t, anchor));
            }
            Ok(())
        });
        pool.give_back(scratch);
        outcome?;
    }

    let tree = Arc::new(
        SteinerTree::from_parents(topo, old.root, old.terminals.clone(), parent, &weight)
            .map_err(SchedError::Topo)?,
    );
    Ok(Some(TreeRepair {
        tree,
        #[cfg(test)]
        reattached,
    }))
}

/// A repaired replacement schedule: the full proposal the committer's
/// migration gate validates, plus the claims delta showing the repair
/// touched only the changed links.
#[derive(Debug)]
pub struct RepairProposal {
    /// The replacement proposal, computed against the live snapshot with
    /// the running schedule still installed.
    pub proposal: Proposal,
    /// Directed-link rate changes versus the running schedule.
    pub delta: ClaimsDelta,
}

/// Smallest `(residual + own credit) / copies` over the tree's directed
/// edges: the uniform per-update rate a migration can obtain, given that
/// the task's current reservations are freed when the new rules install.
fn feasible_rate_with_credit(
    snap: &NetworkSnapshot,
    tree: &SteinerTree,
    copies: &[u32],
    demand: f64,
    credit: &[(DirLink, f64)],
    towards_root: bool,
) -> Result<f64> {
    let topo = snap.topo();
    let mut rate = demand;
    for (child, parent, l) in tree.edges() {
        let from = tree.nodes[if towards_root { child } else { parent }];
        let link = topo.link(l).map_err(SchedError::Topo)?;
        let dir = link
            .direction_from(from)
            .ok_or(SchedError::Topo(flexsched_topo::TopoError::UnknownLink(l)))?;
        let dl = DirLink::new(l, dir);
        let own = credit
            .binary_search_by_key(&dl, |(d, _)| *d)
            .map(|i| credit[i].1)
            .unwrap_or(0.0);
        let residual = snap.net().residual_gbps(dl).unwrap_or(0.0) + own;
        let c = f64::from(copies_at(copies, child).max(1));
        rate = rate.min(residual / c);
    }
    Ok(rate)
}

/// Repair `current`'s trees against the faults visible in `snap` (the
/// *live* state, current schedule still installed) and assemble the
/// replacement proposal.
///
/// Returns `Ok(None)` when neither tree crosses a broken link — the
/// schedule is structurally intact and ordinary (threshold-gated)
/// rescheduling applies instead. Path-plan schedules are never repaired
/// (`Ok(None)`): the fixed scheduler re-solves, which is cheap for paths.
///
/// # Errors
/// * [`SchedError::Unreachable`] — an orphaned terminal cannot be
///   re-attached; fall back to a full re-solve.
/// * [`SchedError::Blocked`] — the repaired tree exists but its feasible
///   rate falls below the floor.
pub(crate) fn repair_schedule(
    cfg: &FlexibleMst,
    task: &AiTask,
    current: &Schedule,
    snap: &NetworkSnapshot,
    scratch: &mut ScratchPool,
) -> Result<Option<RepairProposal>> {
    let (
        RoutingPlan::Tree {
            tree: old_bcast, ..
        },
        RoutingPlan::Tree { tree: old_up, .. },
    ) = (&current.broadcast, &current.upload)
    else {
        return Ok(None);
    };
    let topo = snap.topo();
    let demand = current.demand_gbps;

    // Fast triage: is any *tree* link actually broken? This is the per-tree
    // check (O(tree links) optical probes), not a whole-topology scan — a
    // fault tick may reconsider many schedules, and most probes must be
    // cheap "no, you are fine" answers.
    let link_dead = |l: LinkId| {
        snap.net().is_down(l) || snap.optical().is_some_and(|opt| !opt.can_carry(l, demand))
    };
    // Triage and broken-set construction in one pass: broken-ness is only
    // ever consulted on *tree* links (the detach walks), so the set is
    // populated from the trees' footprints alone — never a whole-topology
    // optical scan on this hot path.
    let mut broken = BrokenLinks::none(topo.link_count());
    for l in old_bcast.links.iter().chain(old_up.links.iter()) {
        if link_dead(*l) {
            broken.insert(*l);
        }
    }
    if broken.is_empty() {
        return Ok(None);
    }

    let credit = current.aggregated_reservations(topo)?;

    // Auxiliary weights exactly as a rescheduling decision sees them: every
    // link the running schedule already occupies — either tree — counts as
    // *reused* (its reservations are freed at migration time, so it stays
    // routable and costs no extra bandwidth), except the broken ones, which
    // are forced unusable. Weights are evaluated lazily inside the frontier
    // search (the search early-exits at the orphans, so most links are
    // never priced) and memoised in a pooled per-link cache, so the tree
    // rebuild's total-weight pass pays nothing extra. NaN marks a
    // not-yet-priced slot (auxiliary weights are never NaN).
    let mut own = Vec::new();
    current.links_into(&mut own);
    let mut cache = scratch.take_weights();
    cache.resize(topo.link_count(), f64::NAN);
    type RepairStage = (
        Option<TreeRepair>,
        Arc<SteinerTree>,
        Option<TreeRepair>,
        Arc<SteinerTree>,
    );
    let outcome: Result<RepairStage> = (|cache: &mut [f64], scratch: &mut ScratchPool| {
        let cache = std::cell::RefCell::new(cache);
        let priced = |cache: &std::cell::RefCell<&mut [f64]>, reused: &[LinkId], l: LinkId| {
            let mut cache = cache.borrow_mut();
            let slot = &mut cache[l.index()];
            if slot.is_nan() {
                *slot = if broken.contains(l) {
                    f64::INFINITY
                } else {
                    match topo.link(l) {
                        Ok(link) => {
                            auxiliary_weight(snap, demand, reused, link, cfg.wavelength_headroom)
                        }
                        Err(_) => f64::INFINITY,
                    }
                };
            }
            *slot
        };
        let bcast_weight = |l: LinkId| priced(&cache, &own, l);
        let bcast_repair = repair_tree(topo, old_bcast, &broken, bcast_weight, task, scratch)?;
        let new_bcast: Arc<SteinerTree> = match &bcast_repair {
            Some(r) => Arc::clone(&r.tree),
            None => Arc::clone(old_bcast),
        };

        // Upload tree: repaired under the upload weights (the repaired
        // broadcast links and the upload tree's own links carry the reuse
        // discount, as in a fresh rescheduling decision). The cache
        // carries over: only the reuse set changed, so it is re-primed
        // for the union eagerly and the rest re-prices lazily.
        let mut reused = [&new_bcast.links[..], &own].concat();
        reused.sort_unstable();
        reused.dedup();
        {
            let mut cache = cache.borrow_mut();
            for l in &reused {
                cache[l.index()] = f64::NAN;
            }
        }
        let up_weight = |l: LinkId| priced(&cache, &reused, l);
        let (up_repair, new_up) =
            match repair_tree(topo, old_up, &broken, up_weight, task, scratch)? {
                Some(r) => {
                    let tree = Arc::clone(&r.tree);
                    (Some(r), tree)
                }
                None => (None, Arc::clone(old_up)),
            };
        Ok((bcast_repair, new_bcast, up_repair, new_up))
    })(&mut cache, scratch);
    scratch.give_back_weights(cache);
    let (bcast_repair, new_bcast, up_repair, new_up) = outcome?;

    if bcast_repair.is_none() && up_repair.is_none() {
        return Ok(None);
    }

    let up_copies = upload_copies(&new_up, topo, &current.selected_locals, cfg.aggregation)?;
    let bcast_rate = feasible_rate_with_credit(snap, &new_bcast, &[], demand, &credit, false)?;
    let up_rate = feasible_rate_with_credit(snap, &new_up, &up_copies, demand, &credit, true)?;
    let rate = bcast_rate.min(up_rate);
    let floor = snap.min_rate_gbps.min(demand);
    if rate < floor {
        return Err(SchedError::Blocked {
            task: task.id,
            reason: BlockReason::RepairedRateBelowFloor {
                rate_gbps: rate,
                floor_gbps: floor,
            },
        });
    }

    let schedule = Schedule {
        task: current.task,
        scheduler: current.scheduler,
        global_site: current.global_site,
        selected_locals: current.selected_locals.clone(),
        demand_gbps: demand,
        broadcast: RoutingPlan::Tree {
            tree: new_bcast,
            rate_gbps: rate,
            copies: Vec::new(),
        },
        upload: RoutingPlan::Tree {
            tree: new_up,
            rate_gbps: rate,
            copies: up_copies,
        },
    };
    let proposal = Proposal::assemble(schedule, snap)?;
    let delta = proposal.claims.delta_from(&credit);
    Ok(Some(RepairProposal { proposal, delta }))
}

/// Whether any link `schedule` routes over is dead in the *live* state:
/// down, or — with an optical layer — without a free wavelength and
/// without groomable headroom for the schedule's demand. The same
/// predicate `repair_schedule` triages with on a snapshot; rescheduling
/// asks it of live state first, so an intact schedule never pays for a
/// live snapshot.
pub fn crosses_dead_link(
    schedule: &Schedule,
    state: &NetworkState,
    optical: Option<&OpticalState>,
) -> bool {
    let dead = link_dead(state, optical, schedule.demand_gbps);
    schedule.broadcast.any_link(&dead) || schedule.upload.any_link(&dead)
}

/// The live predicate of [`crosses_dead_link`] for a demand of
/// `demand_gbps`: a link is dead when it is down or, with an optical
/// layer, cannot carry the demand.
pub(crate) fn link_dead<'a>(
    state: &'a NetworkState,
    optical: Option<&'a OpticalState>,
    demand_gbps: f64,
) -> impl Fn(LinkId) -> bool + 'a {
    move |l| state.is_down(l) || optical.is_some_and(|opt| !opt.can_carry(l, demand_gbps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use flexsched_compute::ModelProfile;
    use flexsched_simnet::NetworkState;
    use flexsched_task::TaskId;
    use flexsched_topo::builders;

    fn rig(locals: usize) -> (NetworkState, AiTask) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let state = NetworkState::new(Arc::clone(&topo));
        let servers = topo.servers();
        let task = AiTask {
            id: TaskId(0),
            model: ModelProfile::mobilenet(),
            global_site: servers[0],
            local_sites: servers[1..=locals].to_vec(),
            data_utility: Default::default(),
            iterations: 5,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        (state, task)
    }

    fn propose(state: &NetworkState, task: &AiTask) -> Proposal {
        let snap = NetworkSnapshot::capture(state);
        FlexibleMst::paper()
            .propose_once(task, &task.local_sites, &snap)
            .unwrap()
    }

    /// A claimed ROADM-to-ROADM ring span: cutting it leaves a detour, so
    /// the repair is exercised rather than a legitimate Unreachable.
    fn core_span(state: &NetworkState, p: &Proposal) -> LinkId {
        p.claims
            .links
            .iter()
            .map(|c| c.link.link)
            .find(|l| {
                let link = state.topo().link(*l).unwrap();
                let a = state.topo().node(link.a).unwrap().kind;
                let b = state.topo().node(link.b).unwrap().kind;
                a == flexsched_topo::NodeKind::Roadm && b == flexsched_topo::NodeKind::Roadm
            })
            .expect("metro schedules cross the WDM ring")
    }

    #[test]
    fn intact_tree_needs_no_repair() {
        let (mut state, task) = rig(8);
        let p = propose(&state, &task);
        p.schedule.apply(&mut state).unwrap();
        let snap = NetworkSnapshot::capture(&state);
        let out = repair_schedule(
            &FlexibleMst::paper(),
            &task,
            &p.schedule,
            &snap,
            &mut ScratchPool::new(),
        )
        .unwrap();
        assert!(out.is_none(), "no fault, no repair");
    }

    #[test]
    fn cut_link_is_routed_around_and_delta_is_local() {
        let (mut state, task) = rig(10);
        let p = propose(&state, &task);
        p.schedule.apply(&mut state).unwrap();
        // Cut a claimed core ring span (ROADM-to-ROADM): a detour exists,
        // unlike a server's single access link.
        let victim = core_span(&state, &p);
        state.set_down(victim, true).unwrap();
        let snap = NetworkSnapshot::capture(&state);
        let rp = repair_schedule(
            &FlexibleMst::paper(),
            &task,
            &p.schedule,
            &snap,
            &mut ScratchPool::new(),
        )
        .unwrap()
        .expect("cut tree link must trigger a repair");
        // The repaired schedule avoids the victim entirely...
        for (dl, _) in rp.proposal.schedule.reservations(state.topo()).unwrap() {
            assert_ne!(dl.link, victim, "repair must avoid the cut link");
        }
        // ...spans every local...
        match &rp.proposal.schedule.broadcast {
            RoutingPlan::Tree { tree, .. } => assert!(tree.spans_all_terminals()),
            _ => panic!("repair keeps tree plans"),
        }
        // ...and its delta is a strict subset of the footprint (the repair
        // is incremental, not a re-route of everything).
        assert!(!rp.delta.touched_links().is_empty());
        let touched = rp.delta.touched_links().len();
        let footprint = rp.proposal.claims.footprint().len();
        assert!(
            touched < footprint,
            "delta ({touched} links) should be smaller than the footprint ({footprint})"
        );
    }

    #[test]
    fn reattachment_anchors_are_surviving_tree_nodes() {
        // Direct tree surgery: cut a claimed core span, repair, and check
        // each re-attached orphan's Voronoi anchor really is a node of
        // the surviving fragment (old tree minus the orphaned subtree).
        let (mut state, task) = rig(10);
        let p = propose(&state, &task);
        p.schedule.apply(&mut state).unwrap();
        let victim = core_span(&state, &p);
        let RoutingPlan::Tree { tree: old, .. } = &p.schedule.broadcast else {
            panic!("tree plan expected");
        };
        if !old.links.contains(&victim) {
            return; // victim came from the upload tree; broadcast intact
        }
        let topo = state.topo();
        let mut broken = BrokenLinks::none(topo.link_count());
        broken.insert(victim);
        let weights: Vec<f64> = topo
            .links()
            .iter()
            .map(|l| {
                if l.id == victim {
                    f64::INFINITY
                } else {
                    flexsched_topo::algo::length_weight(l)
                }
            })
            .collect();
        let repair = repair_tree(
            topo,
            old,
            &broken,
            |l| weights[l.index()],
            &task,
            &mut ScratchPool::new(),
        )
        .unwrap()
        .expect("cut tree link must need surgery");
        assert!(!repair.reattached.is_empty());
        for (orphan, anchor) in &repair.reattached {
            assert!(old.terminals.contains(orphan), "orphan {orphan} unknown");
            // The anchor survived the cut: it is an old-tree node whose
            // path to the root avoids the broken link.
            assert!(old.nodes.contains(anchor), "anchor {anchor} not in tree");
            let path = old.path_from_root(*anchor).unwrap();
            assert!(
                !path.links.contains(&victim),
                "anchor {anchor} was itself orphaned"
            );
            assert!(repair.tree.depth(*orphan).is_some());
        }
    }

    #[test]
    fn repair_rate_credits_own_reservations() {
        // On an otherwise idle network the repaired rate must not be
        // depressed by the task's own live reservations.
        let (mut state, task) = rig(6);
        let p = propose(&state, &task);
        let old_rate = match &p.schedule.broadcast {
            RoutingPlan::Tree { rate_gbps, .. } => *rate_gbps,
            _ => unreachable!(),
        };
        p.schedule.apply(&mut state).unwrap();
        let victim = core_span(&state, &p);
        state.set_down(victim, true).unwrap();
        let snap = NetworkSnapshot::capture(&state);
        let rp = repair_schedule(
            &FlexibleMst::paper(),
            &task,
            &p.schedule,
            &snap,
            &mut ScratchPool::new(),
        )
        .unwrap()
        .expect("repair");
        let new_rate = match &rp.proposal.schedule.broadcast {
            RoutingPlan::Tree { rate_gbps, .. } => *rate_gbps,
            _ => unreachable!(),
        };
        assert!(
            new_rate > old_rate * 0.5,
            "credited rate {new_rate} collapsed versus {old_rate}"
        );
    }

    #[test]
    fn repair_routes_through_its_own_saturated_links() {
        // g — a — b — t with a detour a — c — b. The schedule runs over
        // a—b; background fills t's only access link (b—t) to zero residual
        // *around* the task's own reservation. Cutting a—b orphans t: the
        // only re-attachment path crosses b—t, which is saturated — but by
        // the task itself, whose reservations are credited at migration.
        // The frontier search must treat the task's own links as routable.
        use flexsched_topo::NodeKind;
        let mut t = flexsched_topo::Topology::new();
        let g = t.add_node(NodeKind::Server, "g");
        let a = t.add_node(NodeKind::IpRouter, "a");
        let b = t.add_node(NodeKind::IpRouter, "b");
        let c = t.add_node(NodeKind::IpRouter, "c");
        let l = t.add_node(NodeKind::Server, "t");
        t.add_link(g, a, 1.0, 100.0).unwrap();
        let span = t.add_link(a, b, 1.0, 100.0).unwrap();
        t.add_link(a, c, 1.0, 100.0).unwrap();
        t.add_link(c, b, 1.0, 100.0).unwrap();
        let access = t.add_link(b, l, 1.0, 100.0).unwrap();
        let topo = Arc::new(t);
        let mut state = NetworkState::new(Arc::clone(&topo));
        let task = AiTask {
            id: TaskId(2),
            model: ModelProfile::mobilenet(),
            global_site: g,
            local_sites: vec![l],
            data_utility: Default::default(),
            iterations: 1,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        let p = propose(&state, &task);
        p.schedule.apply(&mut state).unwrap();
        // Saturate the access link around the task's own reservations.
        for dir in [
            flexsched_topo::Direction::AtoB,
            flexsched_topo::Direction::BtoA,
        ] {
            let dl = DirLink::new(access, dir);
            let res = state.residual_gbps(dl).unwrap();
            state.add_background(dl, res).unwrap();
        }
        state.set_down(span, true).unwrap();
        let snap = NetworkSnapshot::capture(&state);
        let rp = repair_schedule(
            &FlexibleMst::paper(),
            &task,
            &p.schedule,
            &snap,
            &mut ScratchPool::new(),
        )
        .unwrap()
        .expect("repair must route through the task's own saturated access link");
        let reservations = rp.proposal.schedule.reservations(state.topo()).unwrap();
        assert!(reservations.iter().all(|(dl, _)| dl.link != span));
        assert!(
            reservations.iter().any(|(dl, _)| dl.link == access),
            "t is only reachable over its own access link"
        );
    }

    #[test]
    fn unreachable_orphan_is_a_typed_error() {
        // Linear topology: cutting the only edge to a terminal leaves no
        // re-attachment path at all.
        use flexsched_topo::NodeKind;
        let mut t = flexsched_topo::Topology::new();
        let g = t.add_node(NodeKind::Server, "g");
        let r = t.add_node(NodeKind::IpRouter, "r");
        let l = t.add_node(NodeKind::Server, "l");
        t.add_link(g, r, 1.0, 100.0).unwrap();
        let cut = t.add_link(r, l, 1.0, 100.0).unwrap();
        let topo = Arc::new(t);
        let mut state = NetworkState::new(Arc::clone(&topo));
        let task = AiTask {
            id: TaskId(1),
            model: ModelProfile::lenet(),
            global_site: g,
            local_sites: vec![l],
            data_utility: Default::default(),
            iterations: 1,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        let p = propose(&state, &task);
        p.schedule.apply(&mut state).unwrap();
        state.set_down(cut, true).unwrap();
        let snap = NetworkSnapshot::capture(&state);
        let err = repair_schedule(
            &FlexibleMst::paper(),
            &task,
            &p.schedule,
            &snap,
            &mut ScratchPool::new(),
        )
        .unwrap_err();
        assert!(matches!(err, SchedError::Unreachable { site, .. } if site == l));
    }

    #[test]
    fn path_plans_are_not_repaired() {
        let (mut state, task) = rig(4);
        let snap = NetworkSnapshot::capture(&state);
        let p = crate::FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap();
        p.schedule.apply(&mut state).unwrap();
        state.set_down(p.claims.links[0].link.link, true).unwrap();
        let snap = NetworkSnapshot::capture(&state);
        let out = repair_schedule(
            &FlexibleMst::paper(),
            &task,
            &p.schedule,
            &snap,
            &mut ScratchPool::new(),
        )
        .unwrap();
        assert!(out.is_none(), "path plans fall back to a full re-solve");
    }

    #[test]
    fn broken_set_tracks_down_links() {
        let (mut state, task) = rig(3);
        let p = propose(&state, &task);
        p.schedule.apply(&mut state).unwrap();
        assert!(!crosses_dead_link(&p.schedule, &state, None));
        let cut = p.claims.links[0].link.link;
        state.set_down(cut, true).unwrap();
        assert!(crosses_dead_link(&p.schedule, &state, None));
        let mut broken = BrokenLinks::none(state.topo().link_count());
        assert!(broken.is_empty());
        broken.insert(cut);
        assert!(broken.contains(cut));
        assert!(!broken.contains(LinkId((cut.0 + 1) % state.topo().link_count() as u32)));
        assert!(!broken.is_empty());
    }
}
