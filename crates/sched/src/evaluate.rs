//! Per-iteration latency and bandwidth evaluation of a schedule.
//!
//! Produces the [`TaskReport`]s behind Figure 3a ("total latency — both
//! model training and communication") and Figure 3b ("consumed bandwidth").
//! The evaluation runs against the network state *with the schedule
//! applied*, so queuing reflects both this task's reservations and
//! everything else on the network.
//!
//! Everything here walks the schedule's trees through pooled buffers
//! ([`EvalScratch`]): a rescheduling check evaluates two schedules per
//! running task per tick, so the evaluator allocates nothing once its
//! buffers are warm.

use crate::schedule::{copies_at, RoutingPlan, Schedule};
use crate::Result;
use flexsched_compute::{training, ClusterManager, ServerSpec};
use flexsched_simnet::transfer::TransferSpec;
use flexsched_simnet::{transfer_time_ns, DirLink, NetworkState, Transport};
use flexsched_task::{AiTask, TaskReport};
use flexsched_topo::algo::SteinerTree;
use flexsched_topo::{LinkId, NodeId, Path, TopoError};

/// Latency penalty per down link a schedule still traverses, ns. A flow
/// over a failed link stalls until protection switching or rescheduling
/// kicks in; 100 ms is a conservative restoration timescale and is what
/// makes the reschedule policy migrate away from broken schedules.
pub const OUTAGE_PENALTY_NS: u64 = 100_000_000;

/// Reusable buffers of [`evaluate_schedule_in`]. A long-lived decision
/// loop keeps one; every array is sized by the schedule's trees, never by
/// the topology.
#[derive(Debug)]
pub struct EvalScratch {
    /// The chain or root path currently being timed.
    path: Path,
    /// The schedule's directed reservations, both procedures.
    reservations: Vec<(DirLink, f64)>,
    /// Distinct down links of the footprint.
    down: Vec<LinkId>,
    /// Selected locals, ascending (membership by binary search).
    selected: Vec<NodeId>,
    /// Upload-tree nodes in breadth-first order from the root, as
    /// positions in the tree's `nodes`.
    order: Vec<u32>,
    /// What each node's significant children delivered, by tree position.
    acc: Vec<Inflow>,
}

impl Default for EvalScratch {
    fn default() -> Self {
        EvalScratch {
            path: Path {
                nodes: Vec::new(),
                links: Vec::new(),
            },
            reservations: Vec::new(),
            down: Vec::new(),
            selected: Vec::new(),
            order: Vec::new(),
            acc: Vec::new(),
        }
    }
}

/// The streams arriving at one aggregation-significant node.
#[derive(Debug, Clone, Copy, Default)]
struct Inflow {
    /// Latest arrival among the node's significant children, ns.
    worst_fill: u64,
    /// Aggregation time on that latest child's path, ns.
    agg_on_path: u64,
    /// The child `worst_fill` came from (ties go to the larger id).
    latest: Option<NodeId>,
    /// Update copies arriving from all children.
    inputs: usize,
}

/// The state-dependent numbers of a [`TaskReport`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Costs {
    training_ns: u64,
    broadcast_ns: u64,
    upload_ns: u64,
    aggregation_ns: u64,
    /// Bandwidth held, Gbit/s·link ([`Schedule::total_bandwidth_gbps`]).
    pub(crate) bandwidth_gbps: f64,
}

impl Costs {
    /// Per-iteration total latency, ns ([`TaskReport::iteration_ns`]).
    pub(crate) fn iteration_ns(&self) -> u64 {
        self.training_ns + self.broadcast_ns + self.upload_ns
    }
}

/// Evaluate one schedule into a [`TaskReport`].
pub fn evaluate_schedule(
    task: &AiTask,
    schedule: &Schedule,
    state: &NetworkState,
    cluster: &ClusterManager,
    transport: &Transport,
) -> Result<TaskReport> {
    evaluate_schedule_in(
        &mut EvalScratch::default(),
        task,
        schedule,
        state,
        cluster,
        transport,
    )
}

/// [`evaluate_schedule`] over caller-kept buffers.
pub fn evaluate_schedule_in(
    bufs: &mut EvalScratch,
    task: &AiTask,
    schedule: &Schedule,
    state: &NetworkState,
    cluster: &ClusterManager,
    transport: &Transport,
) -> Result<TaskReport> {
    let c = costs_in(bufs, task, schedule, state, cluster, transport)?;
    Ok(TaskReport {
        task: task.id,
        scheduler: schedule.scheduler,
        locals_scheduled: schedule.selected_locals.len(),
        training_ns: c.training_ns,
        broadcast_ns: c.broadcast_ns,
        upload_ns: c.upload_ns,
        aggregation_ns: c.aggregation_ns,
        iterations: task.iterations,
        bandwidth_gbps: c.bandwidth_gbps,
        reschedules: 0,
    })
}

/// What `schedule` costs under `state`: everything a report measures,
/// without the report's labels.
pub(crate) fn costs_in(
    bufs: &mut EvalScratch,
    task: &AiTask,
    schedule: &Schedule,
    state: &NetworkState,
    cluster: &ClusterManager,
    transport: &Transport,
) -> Result<Costs> {
    let training_ns = training_latency_ns(task, schedule, cluster);
    let broadcast_ns = broadcast_latency_ns(bufs, task, schedule, state, transport)?;
    let (mut upload_ns, aggregation_ns) =
        upload_latency_ns(bufs, task, schedule, state, transport)?;

    // One reservations walk serves both the bandwidth sum and the outage
    // scan.
    bufs.reservations.clear();
    schedule.reservations_into(state.topo(), &mut bufs.reservations)?;
    let bandwidth_gbps = bufs.reservations.iter().map(|(_, r)| r).sum();

    // Charge outage penalties for every distinct down link in the footprint.
    bufs.down.clear();
    for (dl, _) in &bufs.reservations {
        if state.is_down(dl.link) && !bufs.down.contains(&dl.link) {
            bufs.down.push(dl.link);
        }
    }
    upload_ns += OUTAGE_PENALTY_NS * bufs.down.len() as u64;

    Ok(Costs {
        training_ns,
        broadcast_ns,
        upload_ns,
        aggregation_ns,
        bandwidth_gbps,
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

/// Fill `path` with the tree's route from the root down to `n`.
fn root_path_into(tree: &SteinerTree, n: NodeId, path: &mut Path) -> Result<()> {
    path.nodes.clear();
    path.links.clear();
    path.nodes.push(n);
    if n != tree.root {
        for (p, l) in tree.ancestors(n) {
            path.nodes.push(p);
            path.links.push(l);
        }
        if path.nodes.last() != Some(&tree.root) {
            return Err(TopoError::Disconnected {
                from: tree.root,
                to: n,
            }
            .into());
        }
    }
    path.reverse();
    Ok(())
}

/// Broadcast completion: all locals must receive the global weights; flows
/// run concurrently, so completion is the slowest one.
fn broadcast_latency_ns(
    bufs: &mut EvalScratch,
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
                root_path_into(tree, *local, &mut bufs.path)?;
                worst = worst.max(transfer_over(
                    state, &bufs.path, bytes, *rate_gbps, transport,
                )?);
            }
            Ok(worst)
        }
    }
}

/// Upload completion and the aggregation time on the critical path.
fn upload_latency_ns(
    bufs: &mut EvalScratch,
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
            // Bottom-up completion-time recursion at *chain* granularity:
            // between aggregation-significant nodes (root, selected locals
            // and branch points) updates stream cut-through, so
            // serialization is charged once per chain, not once per hop.
            let EvalScratch {
                path,
                selected,
                order,
                acc,
                ..
            } = bufs;
            selected.clear();
            selected.extend_from_slice(&schedule.selected_locals);
            selected.sort_unstable();
            let is_selected = |n: NodeId| selected.binary_search(&n).is_ok();
            let significant = |i: usize| {
                let n = tree.nodes[i];
                n == tree.root || is_selected(n) || tree.child_positions(i).len() >= 2
            };

            tree.bfs_positions_into(order);
            acc.clear();
            acc.resize(tree.nodes.len(), Inflow::default());

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
            // Reverse breadth-first order finishes every significant node
            // after all its descendants; a finished node hands its stream
            // up its chain to the nearest significant ancestor.
            let (mut fill_ns, mut agg) = (0u64, 0u64);
            for &at in order.iter().rev() {
                let at = at as usize;
                let n = tree.nodes[at];
                if !significant(at) {
                    continue;
                }
                let Inflow {
                    mut worst_fill,
                    mut agg_on_path,
                    inputs,
                    ..
                } = acc[at];
                let inputs = inputs + usize::from(is_selected(n));
                // Aggregate here iff this node collapses multiple updates
                // into one (the root always merges what arrives). Streaming
                // aggregation adds one chunk's worth of merge time to the
                // pipeline fill.
                let collapses = if n == tree.root {
                    inputs > 1
                } else {
                    copies_at(copies, at) == 1 && inputs > 1
                };
                if collapses {
                    let merge =
                        training::aggregation_ns(&task.model, inputs).div_ceil(PIPELINE_CHUNKS);
                    worst_fill += merge;
                    agg_on_path += merge;
                }
                if n == tree.root {
                    (fill_ns, agg) = (worst_fill, agg_on_path);
                    break;
                }

                // The chain from `n` up to its nearest significant ancestor.
                path.nodes.clear();
                path.links.clear();
                path.nodes.push(n);
                let mut cur = at;
                while let Some((p, l)) = tree.parent_at(cur) {
                    path.nodes.push(tree.nodes[p]);
                    path.links.push(l);
                    cur = p;
                    if significant(cur) {
                        break;
                    }
                }
                let c = u64::from(copies_at(copies, at).max(1));
                // One chunk of the (possibly multi-copy) stream at the
                // (copy-scaled) reserved chain rate; the chunked bytes
                // and rate scale together, so copies cancel in the
                // serialization term but not in queuing/propagation.
                let t = transfer_over(
                    state,
                    path,
                    (bytes * c).div_ceil(PIPELINE_CHUNKS),
                    *rate_gbps * c as f64,
                    transport,
                )?;
                let arrival = worst_fill + t;
                let up = &mut acc[cur];
                // The latest arrival sets the ancestor's fill; among equal
                // arrivals the larger child id decides whose aggregation
                // time rides along.
                if up.latest.is_none_or(|prev| {
                    arrival > up.worst_fill || (arrival == up.worst_fill && n > prev)
                }) {
                    up.worst_fill = arrival;
                    up.agg_on_path = agg_on_path;
                    up.latest = Some(n);
                }
                up.inputs += c as usize;
            }
            // Drain: one full update streams into the root at the tree rate.
            let drain_ns = (bytes as f64 * 8.0 / rate_gbps.max(1e-9)).round() as u64;
            Ok((fill_ns + drain_ns, agg))
        }
    }
}

/// Chunks an update is pipelined into while streaming through the
/// aggregation tree (RDMA message / collective chunk granularity).
const PIPELINE_CHUNKS: u64 = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedSpff;
    use crate::flexible::FlexibleMst;
    use crate::snapshot::NetworkSnapshot;
    use crate::Scheduler;
    use flexsched_compute::server::ResourceRequest;
    use flexsched_compute::ModelProfile;
    use flexsched_task::TaskId;
    use flexsched_topo::builders;
    use std::sync::Arc;

    fn rig(locals: usize) -> (NetworkState, ClusterManager, AiTask) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let state = NetworkState::new(Arc::clone(&topo));
        let mut cluster = ClusterManager::from_topology(&topo, ServerSpec::default());
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
        // Place containers so training sees real occupancy.
        let (global, local) = (
            ResourceRequest::global_model(),
            ResourceRequest::local_model(),
        );
        let replicas = std::iter::once((task.global_site, global))
            .chain(task.local_sites.iter().map(|&site| (site, local)))
            .collect();
        cluster.place_task(0, replicas).unwrap();
        (state, cluster, task)
    }

    fn evaluate_with(sched: &dyn Scheduler, locals: usize) -> (TaskReport, f64) {
        let (mut state, cluster, task) = rig(locals);
        let s = {
            let snap = NetworkSnapshot::capture(&state);
            sched
                .propose_once(&task, &task.local_sites, &snap)
                .unwrap()
                .schedule
        };
        s.apply(&mut state).unwrap();
        let report = evaluate_schedule(&task, &s, &state, &cluster, &Transport::tcp()).unwrap();
        let bw = s.total_bandwidth_gbps(state.topo()).unwrap();
        (report, bw)
    }

    #[test]
    fn reports_have_all_components() {
        let (r, _) = evaluate_with(&FixedSpff, 5);
        assert!(r.training_ns > 0);
        assert!(r.broadcast_ns > 0);
        assert!(r.upload_ns > 0);
        assert!(r.upload_ns >= r.aggregation_ns);
        assert!(r.bandwidth_gbps > 0.0);
        assert_eq!(r.locals_scheduled, 5);
    }

    #[test]
    fn latencies_land_in_the_millisecond_regime() {
        let (r, _) = evaluate_with(&FlexibleMst::paper(), 10);
        let ms = r.iteration_ms();
        assert!(ms > 0.05 && ms < 1_000.0, "iteration {ms} ms out of regime");
    }

    #[test]
    fn flexible_beats_fixed_at_high_local_counts() {
        let (fx, _) = evaluate_with(&FixedSpff, 15);
        let (fl, _) = evaluate_with(&FlexibleMst::paper(), 15);
        assert!(
            fl.iteration_ns() < fx.iteration_ns(),
            "flexible {} !< fixed {}",
            fl.iteration_ms(),
            fx.iteration_ms()
        );
    }

    #[test]
    fn schedulers_are_comparable_at_low_local_counts() {
        let (fx, _) = evaluate_with(&FixedSpff, 3);
        let (fl, _) = evaluate_with(&FlexibleMst::paper(), 3);
        // Within 2x of each other at N=3 (the Figure-3a curves start close).
        let ratio = fx.iteration_ns() as f64 / fl.iteration_ns().max(1) as f64;
        assert!(ratio > 0.5 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn fixed_latency_grows_faster_with_locals() {
        let (fx3, _) = evaluate_with(&FixedSpff, 3);
        let (fx15, _) = evaluate_with(&FixedSpff, 15);
        let (fl3, _) = evaluate_with(&FlexibleMst::paper(), 3);
        let (fl15, _) = evaluate_with(&FlexibleMst::paper(), 15);
        let fixed_growth = fx15.iteration_ns() as f64 / fx3.iteration_ns() as f64;
        let flex_growth = fl15.iteration_ns() as f64 / fl3.iteration_ns() as f64;
        assert!(
            fixed_growth > flex_growth,
            "fixed growth {fixed_growth} !> flexible growth {flex_growth}"
        );
    }

    #[test]
    fn flexible_bandwidth_is_lower() {
        let (_, bx) = evaluate_with(&FixedSpff, 12);
        let (_, bl) = evaluate_with(&FlexibleMst::paper(), 12);
        assert!(bl < bx, "flexible bw {bl} !< fixed bw {bx}");
    }

    #[test]
    fn aggregation_ablation_increases_upload_bandwidth_not_latency_floor() {
        let (_with_agg, bw_with) = evaluate_with(&FlexibleMst::paper(), 10);
        let (no_agg, bw_without) = evaluate_with(&FlexibleMst::without_aggregation(), 10);
        assert!(bw_without > bw_with);
        // Without aggregation the root still collapses everything at once.
        assert!(no_agg.upload_ns > 0);
    }

    #[test]
    fn training_reflects_colocation() {
        let (state, cluster, task) = rig(5);
        let snap = NetworkSnapshot::capture(&state);
        let s = FixedSpff
            .propose_once(&task, &task.local_sites, &snap)
            .unwrap()
            .schedule;
        let with_containers = training_latency_ns(&task, &s, &cluster);
        let empty_cluster = ClusterManager::new();
        let bare = training_latency_ns(&task, &s, &empty_cluster);
        assert!(with_containers >= bare, "colocation can only slow training");
    }
}
