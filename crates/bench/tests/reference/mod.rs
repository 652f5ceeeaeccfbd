//! The pre-refactor scheduling hot path, preserved verbatim as the
//! reference the equivalence tests compare against.
//!
//! This module re-implements, on the public APIs, exactly what
//! `FlexibleMst::schedule` did before the flat-index refactor (PR 1):
//!
//! * a fresh `shortest_path_tree` allocation per metric-closure terminal
//!   (no scratch reuse),
//! * `BTreeMap`/`BTreeSet`-addressed Steiner construction, rooting and
//!   copy counting,
//! * a subgraph MST obtained by running Kruskal over *every* topology link
//!   with infinite weight outside the allowed set,
//! * per-link auxiliary weights that recompute both residual directions
//!   and probe wavelengths one `is_free` call at a time.
//!
//! `tests/equivalence.rs` proves the new path produces identical
//! schedules (same tree links and nodes, same copies, same rates). Keep it
//! slow and faithful; do not "fix" it.

// Faithful copy of the seed implementation, lint idioms included.
#![allow(clippy::needless_range_loop)]

use flexsched_optical::{OpticalState, WavelengthId};
use flexsched_simnet::{DirLink, NetworkState};
use flexsched_task::AiTask;
use flexsched_topo::algo::{shortest_path_tree, UnionFind};
use flexsched_topo::{Direction, Link, LinkId, NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Pre-refactor Steiner tree: `BTreeMap` parent pointers, rooted at `root`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineTree {
    /// The root node.
    pub root: NodeId,
    /// All tree nodes, ascending.
    pub nodes: Vec<NodeId>,
    /// All tree links, ascending.
    pub links: Vec<LinkId>,
    /// `parent[n]` = next hop towards the root.
    pub parent: BTreeMap<NodeId, (NodeId, LinkId)>,
    /// Total tree weight under the construction weight function.
    pub total_weight: f64,
}

impl BaselineTree {
    /// Children map exactly as the seed `SteinerTree::children` built it.
    pub fn children(&self) -> BTreeMap<NodeId, Vec<NodeId>> {
        let mut ch: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for n in &self.nodes {
            ch.entry(*n).or_default();
        }
        for (&child, &(parent, _)) in &self.parent {
            ch.entry(parent).or_default().push(child);
        }
        ch
    }

    /// Breadth-first order from the root (seed semantics).
    pub fn bfs_from_root(&self) -> Vec<NodeId> {
        let ch = self.children();
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut q = VecDeque::from([self.root]);
        while let Some(n) = q.pop_front() {
            order.push(n);
            if let Some(kids) = ch.get(&n) {
                for k in kids {
                    q.push_back(*k);
                }
            }
        }
        order
    }
}

/// Seed `residual_min_gbps`: recompute both directions on every call.
fn residual_min_recomputed(state: &NetworkState, link: LinkId) -> f64 {
    let a = state
        .residual_gbps(DirLink::new(link, Direction::AtoB))
        .unwrap_or(0.0);
    let b = state
        .residual_gbps(DirLink::new(link, Direction::BtoA))
        .unwrap_or(0.0);
    a.min(b)
}

/// Seed `auxiliary_weight`: same formula as `flexsched_sched::weights`, but
/// with the pre-refactor cost profile (two-direction residual recompute,
/// scalar per-wavelength feasibility probing).
pub fn baseline_auxiliary_weight(
    state: &NetworkState,
    optical: Option<&OpticalState>,
    demand_gbps: f64,
    reused: &BTreeSet<LinkId>,
    link: &Link,
) -> f64 {
    const LATENCY_UNIT_NS: f64 = 52_000.0;
    if state.is_down(link.id) {
        return f64::INFINITY;
    }
    let residual = residual_min_recomputed(state, link.id);
    if residual <= 0.0 {
        return f64::INFINITY;
    }
    if let Some(opt) = optical {
        if !reused.contains(&link.id) {
            let grid = link.wavelengths.max(1);
            let any_free =
                (0..grid).any(|w| opt.is_free(link.id, WavelengthId(w)).unwrap_or(false));
            let groomable = !any_free
                && opt.lightpaths().any(|lp| {
                    lp.path.links.contains(&link.id) && lp.residual_gbps() + 1e-9 >= demand_gbps
                });
            if !any_free && !groomable {
                return f64::INFINITY;
            }
        }
    }
    let bandwidth_term = if reused.contains(&link.id) {
        0.0
    } else {
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
    bandwidth_term + latency_term
}

/// Seed `prune_to_tree`: Kruskal over the whole topology with infinite
/// weight outside `allowed` (ties by ascending link id), then round-based
/// non-terminal leaf pruning on `BTreeMap` degree tables.
fn prune_to_tree(
    topo: &Topology,
    terminals: &[NodeId],
    allowed: BTreeSet<LinkId>,
    weight: &impl Fn(&Link) -> f64,
) -> BTreeSet<LinkId> {
    let mut edges: Vec<(f64, LinkId)> = topo
        .links()
        .iter()
        .filter(|l| allowed.contains(&l.id))
        .map(|l| (weight(l), l.id))
        .filter(|(w, _)| w.is_finite())
        .collect();
    edges.sort_by(|(wa, la), (wb, lb)| wa.total_cmp(wb).then(la.cmp(lb)));
    let mut uf = UnionFind::new(topo.node_count());
    let mut tree_links = BTreeSet::new();
    for (_, l) in edges {
        let link = topo.link(l).expect("allowed link exists");
        if uf.union(link.a.index(), link.b.index()) {
            tree_links.insert(l);
        }
    }
    let keep: BTreeSet<NodeId> = terminals.iter().copied().collect();
    loop {
        let mut degree: BTreeMap<NodeId, Vec<LinkId>> = BTreeMap::new();
        for l in &tree_links {
            let link = topo.link(*l).expect("tree link exists");
            degree.entry(link.a).or_default().push(*l);
            degree.entry(link.b).or_default().push(*l);
        }
        let prune: Vec<LinkId> = degree
            .iter()
            .filter(|(n, ls)| ls.len() == 1 && !keep.contains(n))
            .map(|(_, ls)| ls[0])
            .collect();
        if prune.is_empty() {
            break;
        }
        for l in prune {
            tree_links.remove(&l);
        }
    }
    tree_links
}

/// The seed's KMB Steiner construction, allocation pattern included: one
/// fresh `shortest_path_tree` per terminal, `BTreeSet` link unions,
/// `BTreeMap` rooting.
pub fn baseline_steiner_tree(
    topo: &Topology,
    root: NodeId,
    terminals: &[NodeId],
    weight: impl Fn(&Link) -> f64,
) -> Option<BaselineTree> {
    let mut all: Vec<NodeId> = Vec::with_capacity(terminals.len() + 1);
    all.push(root);
    for t in terminals {
        if *t != root && !all.contains(t) {
            all.push(*t);
        }
    }
    if all.len() == 1 {
        return Some(BaselineTree {
            root,
            nodes: vec![root],
            links: Vec::new(),
            parent: BTreeMap::new(),
            total_weight: 0.0,
        });
    }

    // 1) Metric closure, one fresh allocation per terminal.
    let mut spts = Vec::with_capacity(all.len());
    for t in &all {
        spts.push(shortest_path_tree(topo, *t, &weight).ok()?);
    }
    for t in all.iter().skip(1) {
        if !spts[0].reachable(*t) {
            return None;
        }
    }

    // 2) Closure MST.
    let mut closure: Vec<(f64, usize, usize)> = Vec::new();
    for i in 0..all.len() {
        for j in (i + 1)..all.len() {
            closure.push((spts[i].cost_to(all[j]), i, j));
        }
    }
    closure.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut uf = UnionFind::new(all.len());
    let mut closure_edges: Vec<(usize, usize)> = Vec::new();
    for (_, i, j) in &closure {
        if uf.union(*i, *j) {
            closure_edges.push((*i, *j));
            if uf.components() == 1 {
                break;
            }
        }
    }

    // 3) Expansion.
    let mut sub_links: BTreeSet<LinkId> = BTreeSet::new();
    for (i, j) in closure_edges {
        sub_links.extend(spts[i].path_to(all[j]).ok()?.links.iter().copied());
    }

    // 4) Subgraph MST + pruning; 5) shortest-path-union candidate.
    let kmb_links = prune_to_tree(topo, &all, sub_links, &weight);
    let mut spt_union: BTreeSet<LinkId> = BTreeSet::new();
    for t in all.iter().skip(1) {
        spt_union.extend(spts[0].path_to(*t).ok()?.links.iter().copied());
    }
    let spt_links = prune_to_tree(topo, &all, spt_union, &weight);

    let weight_of = |links: &BTreeSet<LinkId>| -> f64 {
        links
            .iter()
            .map(|l| weight(topo.link(*l).expect("tree link exists")))
            .sum()
    };
    let tree_links = if weight_of(&kmb_links) <= weight_of(&spt_links) {
        kmb_links
    } else {
        spt_links
    };

    // Root via BTreeMap adjacency BFS.
    let mut adj: BTreeMap<NodeId, Vec<(NodeId, LinkId)>> = BTreeMap::new();
    for l in &tree_links {
        let link = topo.link(*l).expect("tree link exists");
        adj.entry(link.a).or_default().push((link.b, *l));
        adj.entry(link.b).or_default().push((link.a, *l));
    }
    let mut parent: BTreeMap<NodeId, (NodeId, LinkId)> = BTreeMap::new();
    let mut visited: BTreeSet<NodeId> = BTreeSet::from([root]);
    let mut q = VecDeque::from([root]);
    while let Some(n) = q.pop_front() {
        if let Some(nbrs) = adj.get(&n) {
            for (nbr, l) in nbrs {
                if visited.insert(*nbr) {
                    parent.insert(*nbr, (n, *l));
                    q.push_back(*nbr);
                }
            }
        }
    }
    for t in &all {
        if !visited.contains(t) {
            return None;
        }
    }
    let total_weight = tree_links
        .iter()
        .map(|l| weight(topo.link(*l).expect("tree link exists")))
        .sum();
    Some(BaselineTree {
        root,
        nodes: visited.into_iter().collect(),
        links: tree_links.into_iter().collect(),
        parent,
        total_weight,
    })
}

/// Seed `upload_copies`: bottom-up over `BTreeMap`s.
pub fn baseline_upload_copies(
    tree: &BaselineTree,
    topo: &Topology,
    selected: &BTreeSet<NodeId>,
    aggregation: bool,
) -> BTreeMap<NodeId, u32> {
    let order = tree.bfs_from_root();
    let mut carried: BTreeMap<NodeId, u32> = BTreeMap::new();
    let children = tree.children();
    for n in order.iter().rev() {
        let mut c: u32 = selected.contains(n) as u32;
        if let Some(kids) = children.get(n) {
            for k in kids {
                c += carried.get(k).copied().unwrap_or(0);
            }
        }
        let can_agg = topo
            .node(*n)
            .map(|node| node.kind.can_aggregate())
            .unwrap_or(false);
        if aggregation && can_agg && c > 1 {
            c = 1;
        }
        carried.insert(*n, c);
    }
    carried.remove(&tree.root);
    carried
}

/// Seed `feasible_rate`: per-edge residual recomputation via `BTreeMap`
/// parent lookups.
pub fn baseline_feasible_rate(
    state: &NetworkState,
    tree: &BaselineTree,
    copies: &BTreeMap<NodeId, u32>,
    demand: f64,
) -> f64 {
    let mut rate = demand;
    for n in &tree.nodes {
        if let Some(&(_, l)) = tree.parent.get(n) {
            let c = f64::from(copies.get(n).copied().unwrap_or(1).max(1));
            let residual = residual_min_recomputed(state, l);
            rate = rate.min(residual / c);
        }
    }
    rate
}

/// The result of one baseline scheduling decision, in comparable form.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineSchedule {
    /// Broadcast tree.
    pub broadcast: BaselineTree,
    /// Upload tree.
    pub upload: BaselineTree,
    /// Copies on each node's parent edge in the upload tree.
    pub copies: BTreeMap<NodeId, u32>,
    /// Uniform per-update rate, Gbit/s.
    pub rate_gbps: f64,
}

/// The seed `FlexibleMst::schedule` (paper configuration: separate trees,
/// aggregation on), end to end. Returns `None` where the real scheduler
/// errors (empty selection, unreachable locals, rate below floor).
pub fn baseline_flexible_schedule(
    task: &AiTask,
    selected: &[NodeId],
    state: &NetworkState,
    optical: Option<&OpticalState>,
    min_rate_gbps: f64,
) -> Option<BaselineSchedule> {
    if selected.is_empty() {
        return None;
    }
    let topo = state.topo();
    let demand = task.demand_gbps();

    let no_reuse: BTreeSet<LinkId> = BTreeSet::new();
    let broadcast = baseline_steiner_tree(topo, task.global_site, selected, |l| {
        baseline_auxiliary_weight(state, optical, demand, &no_reuse, l)
    })?;
    let reused: BTreeSet<LinkId> = broadcast.links.iter().copied().collect();
    let upload = baseline_steiner_tree(topo, task.global_site, selected, |l| {
        baseline_auxiliary_weight(state, optical, demand, &reused, l)
    })?;

    let selected_set: BTreeSet<NodeId> = selected.iter().copied().collect();
    let copies = baseline_upload_copies(&upload, topo, &selected_set, true);
    let empty: BTreeMap<NodeId, u32> = BTreeMap::new();
    let bcast_rate = baseline_feasible_rate(state, &broadcast, &empty, demand);
    let up_rate = baseline_feasible_rate(state, &upload, &copies, demand);
    let rate_gbps = bcast_rate.min(up_rate);
    if rate_gbps < min_rate_gbps.min(demand) {
        return None;
    }
    Some(BaselineSchedule {
        broadcast,
        upload,
        copies,
        rate_gbps,
    })
}
