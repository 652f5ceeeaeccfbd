//! The reference implementations the differential proptests compare
//! against: `evaluate_schedule` and `reschedule::consider` exactly as they
//! stood before the pooled evaluator and the consideration workspace (PR
//! 17) — fresh sets, maps and `Path`s per evaluation; two state clones, two
//! snapshot captures and an unconditional `propose_repair` per
//! consideration — and a tree plan's reservations and feasible rates walked
//! with its copy counts keyed by node, as `RoutingPlan::Tree` stored them
//! before it indexed them by tree position. Test-only: nothing outside
//! `tests/` calls these.

use flexsched_compute::{training, ClusterManager, ServerSpec};
use flexsched_sched::evaluate::OUTAGE_PENALTY_NS;
use flexsched_sched::reschedule::{ReschedulePolicy, RescheduleVerdict};
use flexsched_sched::{ClaimsDelta, NetworkSnapshot, Result, RoutingPlan, Schedule, Scheduler};
use flexsched_simnet::transfer::TransferSpec;
use flexsched_simnet::{transfer_time_ns, DirLink, NetworkState, Transport};
use flexsched_task::{AiTask, TaskReport};
use flexsched_topo::algo::{ScratchPool, SteinerTree};
use flexsched_topo::{NodeId, Path, TopoError, Topology};
use std::collections::BTreeMap;

/// Evaluate one schedule into a [`TaskReport`].
pub fn evaluate_schedule(
    task: &AiTask,
    schedule: &Schedule,
    state: &NetworkState,
    cluster: &ClusterManager,
    transport: &Transport,
) -> Result<TaskReport> {
    let training_ns = training_latency_ns(task, schedule, cluster);
    let broadcast_ns = broadcast_latency_ns(task, schedule, state, transport)?;
    let (mut upload_ns, aggregation_ns) = upload_latency_ns(task, schedule, state, transport)?;

    // One reservations walk serves both the bandwidth sum and the outage
    // scan (it used to be recomputed for each).
    let reservations = reservations(schedule, state.topo())?;
    let bandwidth_gbps = reservations.iter().map(|(_, r)| r).sum();

    // Charge outage penalties for every distinct down link in the footprint.
    let mut down_links = std::collections::BTreeSet::new();
    for (dl, _) in &reservations {
        if state.is_down(dl.link) {
            down_links.insert(dl.link);
        }
    }
    upload_ns += OUTAGE_PENALTY_NS * down_links.len() as u64;

    Ok(TaskReport {
        task: task.id,
        scheduler: schedule.scheduler,
        locals_scheduled: schedule.selected_locals.len(),
        training_ns,
        broadcast_ns,
        upload_ns,
        aggregation_ns,
        iterations: task.iterations,
        bandwidth_gbps,
        reschedules: 0,
    })
}

/// Slowest local's per-iteration training time (locals train in parallel;
/// the synchronisation barrier waits for the straggler).
fn training_latency_ns(task: &AiTask, schedule: &Schedule, cluster: &ClusterManager) -> u64 {
    let default_spec = ServerSpec::default();
    schedule
        .selected_locals
        .iter()
        .map(|site| {
            // Borrow the spec — no per-local clone inside the straggler-max
            // loop.
            let (spec, colocated) = match cluster.server(*site) {
                Ok(s) => (&s.spec, s.containers.max(1)),
                Err(_) => (&default_spec, 1),
            };
            training::training_iteration_ns(&task.model, spec, colocated)
        })
        .max()
        .unwrap_or(0)
}

fn transfer_over(
    state: &NetworkState,
    path: &Path,
    bytes: u64,
    rate: f64,
    transport: &Transport,
) -> Result<u64> {
    Ok(transfer_time_ns(
        state,
        &TransferSpec {
            path,
            size_bytes: bytes,
            reserved_gbps: rate,
            transport,
        },
    )?
    .as_ns())
}

/// Broadcast completion: all locals must receive the global weights; flows
/// run concurrently, so completion is the slowest one.
fn broadcast_latency_ns(
    task: &AiTask,
    schedule: &Schedule,
    state: &NetworkState,
    transport: &Transport,
) -> Result<u64> {
    let bytes = task.update_bytes();
    match &schedule.broadcast {
        RoutingPlan::Paths(map) => {
            let mut worst = 0u64;
            for rp in map.values() {
                worst = worst.max(transfer_over(
                    state,
                    &rp.path,
                    bytes,
                    rp.rate_gbps,
                    transport,
                )?);
            }
            Ok(worst)
        }
        RoutingPlan::Tree {
            tree, rate_gbps, ..
        } => {
            // Multicast: each leaf's copy streams down its root path at the
            // tree rate; completion is the deepest/slowest leaf.
            let mut worst = 0u64;
            for local in &schedule.selected_locals {
                let path = tree.path_from_root(*local)?;
                worst = worst.max(transfer_over(state, &path, bytes, *rate_gbps, transport)?);
            }
            Ok(worst)
        }
    }
}

/// Upload completion and the aggregation time on the critical path.
fn upload_latency_ns(
    task: &AiTask,
    schedule: &Schedule,
    state: &NetworkState,
    transport: &Transport,
) -> Result<(u64, u64)> {
    let bytes = task.update_bytes();
    match &schedule.upload {
        RoutingPlan::Paths(map) => {
            // All locals push concurrently; the global site then aggregates
            // every update at once.
            let mut worst = 0u64;
            for rp in map.values() {
                worst = worst.max(transfer_over(
                    state,
                    &rp.path,
                    bytes,
                    rp.rate_gbps,
                    transport,
                )?);
            }
            let agg = training::aggregation_ns(&task.model, map.len() + 1);
            Ok((worst + agg, agg))
        }
        RoutingPlan::Tree {
            tree,
            rate_gbps,
            copies,
        } => {
            // The plan's positional copies keyed by node, as this reference
            // has always read them (missing entries default to 1).
            let copies = keyed_copies(tree, copies);
            // Bottom-up completion-time recursion at *chain* granularity:
            // between aggregation-significant nodes (root, selected locals
            // and branch points) updates stream cut-through, so
            // serialization is charged once per chain, not once per hop.
            let selected: std::collections::BTreeSet<NodeId> =
                schedule.selected_locals.iter().copied().collect();
            let significant: std::collections::BTreeSet<NodeId> = tree
                .nodes
                .iter()
                .copied()
                .filter(|n| {
                    *n == tree.root || selected.contains(n) || tree.children_of(*n).len() >= 2
                })
                .collect();

            // Chain from each significant node up to its nearest significant
            // ancestor: sig_children[ancestor] = [(node, chain path)].
            let mut sig_children: BTreeMap<NodeId, Vec<(NodeId, Path)>> = BTreeMap::new();
            for s in &significant {
                if *s == tree.root {
                    continue;
                }
                let mut nodes = vec![*s];
                let mut links = Vec::new();
                let mut cur = *s;
                while let Some((p, l)) = tree.parent_of(cur) {
                    nodes.push(p);
                    links.push(l);
                    cur = p;
                    if significant.contains(&cur) {
                        break;
                    }
                }
                let chain = Path::new(nodes, links).expect("chain alternation holds");
                sig_children.entry(cur).or_default().push((*s, chain));
            }

            // Streaming (pipelined) aggregation: updates flow through the
            // tree in chunks, each aggregation stage starts merging as soon
            // as the first chunk arrives. Completion follows the classic
            // pipeline formula
            //
            //   total = fill(deepest path of stage latencies) + drain,
            //
            // where a stage's latency is its chain's propagation/switching/
            // queuing plus one chunk of serialization and (if it collapses
            // updates) one chunk of aggregation compute, and the drain is a
            // single full-update serialization at the tree rate.
            //
            // Process significant nodes deepest-first.
            let mut order: Vec<NodeId> = significant.iter().copied().collect();
            order.sort_by_key(|n| std::cmp::Reverse(tree.depth(*n).unwrap_or(0)));
            let mut fill: BTreeMap<NodeId, (u64, u64)> = BTreeMap::new();
            for n in order {
                let mut worst_fill = 0u64;
                let mut agg_on_path = 0u64;
                let mut inputs = usize::from(selected.contains(&n));
                for (child, chain) in sig_children.get(&n).cloned().unwrap_or_default() {
                    let (c_fill, c_agg) = fill.get(&child).copied().unwrap_or((0, 0));
                    let c = u64::from(copies.get(&child).copied().unwrap_or(1).max(1));
                    // One chunk of the (possibly multi-copy) stream at the
                    // (copy-scaled) reserved chain rate; the chunked bytes
                    // and rate scale together, so copies cancel in the
                    // serialization term but not in queuing/propagation.
                    let t = transfer_over(
                        state,
                        &chain,
                        (bytes * c).div_ceil(PIPELINE_CHUNKS),
                        *rate_gbps * c as f64,
                        transport,
                    )?;
                    let arrival = c_fill + t;
                    if arrival >= worst_fill {
                        worst_fill = arrival;
                        agg_on_path = c_agg;
                    }
                    inputs += c as usize;
                }
                // Aggregate here iff this node collapses multiple updates
                // into one (the root always merges what arrives). Streaming
                // aggregation adds one chunk's worth of merge time to the
                // pipeline fill.
                let collapses = if n == tree.root {
                    inputs > 1
                } else {
                    copies.get(&n).copied().unwrap_or(1) == 1 && inputs > 1
                };
                if collapses {
                    let agg =
                        training::aggregation_ns(&task.model, inputs).div_ceil(PIPELINE_CHUNKS);
                    worst_fill += agg;
                    agg_on_path += agg;
                }
                fill.insert(n, (worst_fill, agg_on_path));
            }
            let (fill_ns, agg) = fill.get(&tree.root).copied().unwrap_or((0, 0));
            // Drain: one full update streams into the root at the tree rate.
            let drain_ns = (bytes as f64 * 8.0 / rate_gbps.max(1e-9)).round() as u64;
            Ok((fill_ns + drain_ns, agg))
        }
    }
}

/// Chunks an update is pipelined into while streaming through the
/// aggregation tree (RDMA message / collective chunk granularity).
const PIPELINE_CHUNKS: u64 = 16;

/// A tree plan's positional `copies` keyed by node: every non-root node's
/// count, and nothing for an empty (multicast) vector, whose missing
/// entries read as 1.
pub fn keyed_copies(tree: &SteinerTree, copies: &[u32]) -> BTreeMap<NodeId, u32> {
    if copies.is_empty() {
        return BTreeMap::new();
    }
    assert_eq!(copies.len(), tree.nodes.len(), "one count per tree node");
    tree.nodes
        .iter()
        .zip(copies)
        .filter(|(n, _)| **n != tree.root)
        .map(|(n, c)| (*n, *c))
        .collect()
}

/// `Schedule::reservations`: every directed hop of both procedures, a
/// tree's edges walked by child node with its copies looked up by node.
pub fn reservations(schedule: &Schedule, topo: &Topology) -> Result<Vec<(DirLink, f64)>> {
    let mut out = Vec::new();
    for (plan, towards_root) in [(&schedule.broadcast, false), (&schedule.upload, true)] {
        match plan {
            RoutingPlan::Paths(map) => {
                for rp in map.values() {
                    for (i, l) in rp.path.links.iter().enumerate() {
                        let dir = topo
                            .link(*l)?
                            .direction_from(rp.path.nodes[i])
                            .ok_or(TopoError::UnknownLink(*l))?;
                        out.push((DirLink::new(*l, dir), rp.rate_gbps));
                    }
                }
            }
            RoutingPlan::Tree {
                tree,
                rate_gbps,
                copies,
            } => {
                let copies = keyed_copies(tree, copies);
                for n in &tree.nodes {
                    let Some((parent, l)) = tree.parent_of(*n) else {
                        continue;
                    };
                    let from = if towards_root { *n } else { parent };
                    let dir = topo
                        .link(l)?
                        .direction_from(from)
                        .ok_or(TopoError::UnknownLink(l))?;
                    let c = f64::from(copies.get(n).copied().unwrap_or(1).max(1));
                    out.push((DirLink::new(l, dir), *rate_gbps * c));
                }
            }
        }
    }
    Ok(out)
}

/// `Schedule::aggregated_reservations`: [`reservations`] sorted by
/// directed link and summed per link into a second vector.
pub fn aggregated_reservations(
    schedule: &Schedule,
    topo: &Topology,
) -> Result<Vec<(DirLink, f64)>> {
    let mut r = reservations(schedule, topo)?;
    r.sort_unstable_by_key(|x| x.0);
    let mut out: Vec<(DirLink, f64)> = Vec::with_capacity(r.len());
    for (dl, gbps) in r {
        match out.last_mut() {
            Some((last, sum)) if *last == dl => *sum += gbps,
            _ => out.push((dl, gbps)),
        }
    }
    Ok(out)
}

/// A fresh decision's feasible rate over one tree on the state `snap` (the
/// state a snapshot copied): the smallest `residual / copies` over its
/// edges, both directions' residual, with `copies` keyed by child node.
pub fn feasible_rate(
    snap: &NetworkState,
    tree: &SteinerTree,
    copies: &BTreeMap<NodeId, u32>,
    demand: f64,
) -> f64 {
    let mut rate = demand;
    for n in &tree.nodes {
        let Some((_, l)) = tree.parent_of(*n) else {
            continue;
        };
        let c = f64::from(copies.get(n).copied().unwrap_or(1).max(1));
        rate = rate.min(snap.residual_min_gbps(l) / c);
    }
    rate
}

/// A repair's feasible rate over one tree on the state `snap`: the
/// smallest `(residual + own credit) / copies` over its directed edges,
/// with `copies` keyed by child node.
pub fn feasible_rate_with_credit(
    snap: &NetworkState,
    tree: &SteinerTree,
    copies: &BTreeMap<NodeId, u32>,
    demand: f64,
    credit: &[(DirLink, f64)],
    towards_root: bool,
) -> Result<f64> {
    let mut rate = demand;
    for n in &tree.nodes {
        let Some((parent, l)) = tree.parent_of(*n) else {
            continue;
        };
        let from = if towards_root { *n } else { parent };
        let dir = snap
            .topo()
            .link(l)?
            .direction_from(from)
            .ok_or(TopoError::UnknownLink(l))?;
        let dl = DirLink::new(l, dir);
        let own = credit
            .binary_search_by_key(&dl, |(d, _)| *d)
            .map(|i| credit[i].1)
            .unwrap_or(0.0);
        let residual = snap.residual_gbps(dl).unwrap_or(0.0) + own;
        let c = f64::from(copies.get(n).copied().unwrap_or(1).max(1));
        rate = rate.min(residual / c);
    }
    Ok(rate)
}

#[allow(clippy::too_many_arguments)]
pub fn consider(
    policy: &ReschedulePolicy,
    scheduler: &dyn Scheduler,
    task: &AiTask,
    current: &Schedule,
    remaining_iterations: u32,
    repairs_since_resolve: u32,
    retry_attempts: u32,
    state: &NetworkState,
    optical: Option<&flexsched_optical::OpticalState>,
    cluster: &ClusterManager,
    transport: &Transport,
    scratch: &mut ScratchPool,
) -> Result<RescheduleVerdict> {
    // Retry-budget gate: an exhausted task is shed before any proposal
    // work — no speculation, no pricing clone.
    if let Some(retry) = &policy.retry {
        if retry.exhausted(retry_attempts) {
            return Ok(RescheduleVerdict::Shed {
                attempts: retry_attempts,
            });
        }
    }

    // Current cost under today's conditions.
    let current_report = evaluate_schedule(task, current, state, cluster, transport)?;

    // Repair-drift guard: a schedule repaired too many consecutive times
    // skips straight to the full re-solve, which rebuilds the tree fresh.
    let drift_tripped = policy
        .resolve_after_repairs
        .is_some_and(|n| repairs_since_resolve >= n);

    // Repair path: live snapshot, incremental surgery, unconditional
    // migration. Any failure (no tree damage, orphan unreachable, rate
    // below floor) falls through to the full re-solve below.
    if policy.prefer_repair && !drift_tripped {
        let mut live_snap = NetworkSnapshot::capture(state);
        if let Some(opt) = optical {
            live_snap = live_snap.with_optical(opt);
        }
        if let Ok(Some(repair)) = scheduler.propose_repair(task, current, &live_snap, scratch) {
            let mut with_candidate = state.clone();
            current.release(&mut with_candidate)?;
            // Pricing only: the committer re-validates the schedule at
            // migration time; a candidate that no longer applies cleanly
            // here would be rejected there too.
            if repair.schedule.apply(&mut with_candidate).is_ok() {
                let candidate_report =
                    evaluate_schedule(task, &repair.schedule, &with_candidate, cluster, transport)?;
                let per_iter_saving =
                    current_report.iteration_ns() as i64 - candidate_report.iteration_ns() as i64;
                let bandwidth_delta_gbps = repair.schedule.total_bandwidth_gbps(state.topo())?
                    - current.total_bandwidth_gbps(state.topo())?;
                return Ok(RescheduleVerdict::Migrate {
                    predicted_saving_ns: per_iter_saving * i64::from(remaining_iterations),
                    bandwidth_delta_gbps,
                    new_proposal: Box::new(repair),
                    repair_delta: Some(ClaimsDelta),
                });
            }
        }
    }

    // Full re-solve path: hypothetical world without our reservations.
    // The optical view (when the scenario has one) rides along so the
    // candidate avoids spectrally dead fibers and is checked for spectrum,
    // exactly like the repair path above.
    let mut without_us = state.clone();
    current.release(&mut without_us)?;
    let candidate = {
        let mut snap = NetworkSnapshot::capture(&without_us);
        if let Some(opt) = optical {
            snap = snap.with_optical(opt);
        }
        scheduler.propose(task, &current.selected_locals, &snap, scratch)?
    };
    let mut with_candidate = without_us.clone();
    candidate.schedule.apply(&mut with_candidate)?;
    let candidate_report = evaluate_schedule(
        task,
        &candidate.schedule,
        &with_candidate,
        cluster,
        transport,
    )?;

    let per_iter_saving =
        current_report.iteration_ns() as i64 - candidate_report.iteration_ns() as i64;
    let total_saving = per_iter_saving * i64::from(remaining_iterations);
    let cost = (policy.interruption_ns as f64 * policy.threshold) as i64;

    if total_saving > cost {
        let bandwidth_delta_gbps = candidate.schedule.total_bandwidth_gbps(state.topo())?
            - current.total_bandwidth_gbps(state.topo())?;
        Ok(RescheduleVerdict::Migrate {
            new_proposal: Box::new(candidate),
            predicted_saving_ns: total_saving,
            bandwidth_delta_gbps,
            repair_delta: None,
        })
    } else {
        Ok(RescheduleVerdict::Keep {
            rejected_saving_ns: total_saving,
        })
    }
}
