//! Rescheduling: the interruption-vs-saving trade-off (open challenge #1),
//! now repair-first.
//!
//! "Routing paths and aggregation procedures must be initially scheduled
//! for each AI task, and then re-scheduled when the deployed AI tasks and
//! networks change. ... We also need to balance a trade-off between
//! re-scheduling (temporary interruption) and bandwidth/latency saving."
//!
//! Two paths through a rescheduling consideration:
//!
//! * **Repair path** (default, [`ReschedulePolicy::prefer_repair`]): when
//!   the running schedule's tree crosses a broken link, ask the policy for
//!   an [incremental repair](crate::repair) — detach the orphaned subtree,
//!   re-attach it via a frontier-restricted search — and migrate
//!   *unconditionally*: a schedule across a dead link serves nothing, so
//!   the interruption trade-off does not apply. Repair proposals are
//!   computed against the **live** snapshot, crediting the task's own
//!   reservations.
//! * **Full re-solve path** (fallback, and the only path for load-driven
//!   reschedules): re-run the scheduler against a hypothetical world
//!   without the task's own reservations, and migrate only when the
//!   predicted latency saving over the remaining iterations outweighs the
//!   interruption cost by the configured factor.
//!
//! Neither path is tried when one of the task's own terminals cannot be
//! reached: down links cut a local off from its global site, or every
//! link of an electrical terminal is dead (down, or unable to carry the
//! demand optically). No route to such a terminal exists, so the answer
//! is `Unreachable` straight away (step 0 of [`consider_in`]).

use crate::evaluate::{costs_in, EvalScratch};
use crate::proposal::{ClaimsDelta, Proposal};
use crate::repair::{crosses_dead_link, link_dead};
use crate::retry::RetryPolicy;
use crate::schedule::Schedule;
use crate::snapshot::NetworkSnapshot;
use crate::{Result, SchedError, Scheduler};
use flexsched_compute::ClusterManager;
use flexsched_optical::{OpticalSnapshot, OpticalState};
use flexsched_simnet::{NetworkState, Transport};
use flexsched_task::AiTask;
use flexsched_topo::algo::{reaches_all, ScratchPool};
use flexsched_topo::{LinkId, NodeId};
use std::sync::Arc;

/// Rescheduling decision knobs.
#[derive(Debug, Clone)]
pub struct ReschedulePolicy {
    /// Time the task is paused while paths are reconfigured, ns.
    pub interruption_ns: u64,
    /// Required benefit-to-cost ratio before migrating (1.0 = break-even;
    /// higher = more conservative).
    pub threshold: f64,
    /// Try an incremental tree repair before a full re-solve. Repairs are
    /// an order of magnitude cheaper per decision (one frontier search
    /// versus two Steiner constructions) and keep every tree edge the
    /// fault left intact. The committer validates a repair like any
    /// migration: its schedule whole, the old schedule's credited back.
    pub prefer_repair: bool,
    /// Repair-drift guard: after this many *consecutive* repairs of one
    /// task's schedule (no full re-solve in between), force the next
    /// rescheduling consideration down the full re-solve path even when a
    /// repair would apply. Greedy grafts accumulate: each repair is
    /// locally cheapest, but a long chain can drift a tree away from what
    /// a fresh solve would build. The caller tracks the per-task counter
    /// (the orchestrator keeps it in the `Database`) and hands it to
    /// [`consider`]; `None` never forces a re-solve (the pre-guard
    /// behaviour). The default is backed by the fault-storm drift sweep in
    /// `flexsched-orchestrator`'s test-only `faultstorm` module — long
    /// storms show the service gap stays bounded while per-decision cost
    /// stays near the pure-repair policy.
    pub resolve_after_repairs: Option<u32>,
    /// Retry budget for the reschedule path: when set, a consideration
    /// whose caller-tracked `retry_attempts` counter has exhausted
    /// [`RetryPolicy::max_attempts`] returns
    /// [`RescheduleVerdict::Shed`] instead of proposing again — the task
    /// is released rather than livelocked through endless failed
    /// migrations. `None` (the default) keeps the pre-overload behaviour:
    /// the caller retries forever.
    pub retry: Option<RetryPolicy>,
}

/// Default repair-drift bound (see
/// [`ReschedulePolicy::resolve_after_repairs`]): storms long enough to
/// repair one schedule this many times in a row are where drift becomes
/// measurable, while forcing a full re-solve once per this many repairs
/// adds (1/8)·(re-solve − repair) ≈ 12% to the mean rescheduling decision.
/// The sweep that chose it (`drift_guard_sweep_at_long_horizons` in
/// `flexsched-orchestrator`'s test-only `faultstorm` module) decides
/// through the drivers' own `Pipeline::reconsider`, which runs
/// [`consider_in`], so the bound it holds is a bound on this code.
pub const RESOLVE_AFTER_REPAIRS: u32 = 8;

impl Default for ReschedulePolicy {
    fn default() -> Self {
        ReschedulePolicy {
            // SDN flow-rule + ROADM reconfiguration: a few milliseconds.
            interruption_ns: 5_000_000,
            threshold: 1.5,
            prefer_repair: true,
            resolve_after_repairs: Some(RESOLVE_AFTER_REPAIRS),
            retry: None,
        }
    }
}

impl ReschedulePolicy {
    /// The overload-degraded variant of this policy: the policy itself.
    /// Degraded mode differs only in its scheduler (the cheap fixed-tree
    /// one); this survives because the benchmark's replay calls it
    /// (ROADMAP item 1 step B).
    pub fn degraded(&self) -> Self {
        self.clone()
    }
}

/// Outcome of a rescheduling consideration.
#[derive(Debug)]
pub enum RescheduleVerdict {
    /// Keep the current schedule (saving does not justify interruption).
    Keep {
        /// Predicted total saving that was rejected, ns (may be negative).
        rejected_saving_ns: i64,
    },
    /// Migrate to the new schedule.
    Migrate {
        /// The replacement proposal (not yet validated or stored — the
        /// orchestrator's committer does that).
        new_proposal: Box<Proposal>,
        /// Predicted latency saving over remaining iterations, ns.
        predicted_saving_ns: i64,
        /// Bandwidth change (new - old), Gbit/s·link (negative = saving).
        bandwidth_delta_gbps: f64,
        /// `Some` when the proposal came from the incremental repair path:
        /// a repair commits like any migration, but the caller counts it
        /// as a repair (the drift guard's counter). `None` for full
        /// re-solves.
        repair_delta: Option<ClaimsDelta>,
    },
    /// Give up on the task: its retry budget
    /// ([`ReschedulePolicy::retry`]) is exhausted. The caller should
    /// release the task's resources instead of considering it again —
    /// the bounded alternative to livelocking through migrations the
    /// committer keeps rejecting.
    Shed {
        /// Failed attempts that exhausted the budget.
        attempts: u32,
    },
}

/// Reusable buffers of [`consider_in`]: one copy of the network state —
/// the IP-layer view a candidate is proposed against, then the world it is
/// priced on —, the consideration's optical freeze, and the evaluator's
/// walk buffers. A long-lived decision loop keeps one, so a consideration
/// refills arrays instead of allocating them; nothing in it carries
/// meaning from one consideration to the next.
#[derive(Debug, Default)]
pub struct ConsiderWorkspace {
    net: Option<NetworkState>,
    optical: Option<Arc<OpticalSnapshot>>,
    eval: EvalScratch,
}

/// [`consider_in`] with a throwaway [`ConsiderWorkspace`] — for tests,
/// examples and one-shot callers.
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
    optical: Option<&OpticalState>,
    cluster: &ClusterManager,
    transport: &Transport,
    scratch: &mut ScratchPool,
) -> Result<RescheduleVerdict> {
    consider_in(
        &mut ConsiderWorkspace::default(),
        policy,
        scheduler,
        task,
        current,
        remaining_iterations,
        repairs_since_resolve,
        retry_attempts,
        state,
        optical,
        cluster,
        transport,
        scratch,
    )
}

/// Consider rescheduling `task` (currently running `current`, with
/// `remaining_iterations` left) under fresh network conditions.
/// `repairs_since_resolve` is the task's consecutive-repair counter (the
/// orchestrator's database maintains it); once it reaches
/// [`ReschedulePolicy::resolve_after_repairs`] the repair path is skipped
/// for this consideration, so a drifted tree gets rebuilt from scratch.
/// `retry_attempts` is the caller-tracked count of this task's failed
/// migration attempts (committer rejections of earlier `Migrate`
/// verdicts); with [`ReschedulePolicy::retry`] set, an exhausted budget
/// short-circuits to [`RescheduleVerdict::Shed`] before any proposal work.
///
/// `state` must be the live network state *with `current` applied*;
/// `optical` is the live optical state when the scenario models
/// wavelengths — the repair path needs it to see soft failures (a
/// spectrally dead fiber is invisible to the IP layer).
///
/// One consideration, in order:
///
/// 0. **Unreachable terminals first.** No repair and no re-solve can
///    succeed when a terminal cannot be reached, so the answer is
///    [`SchedError::Unreachable`] for that terminal, before anything is
///    priced, triaged, frozen, repaired or proposed. Two rules, in order:
///    * **Cut.** Hard-down links separate `current.global_site` from one
///      of `current.selected_locals`; the first local cut off is named. A
///      plan with no down link proves its terminals connected, so the
///      search (one BFS over up links, [`reaches_all`]) runs only when
///      both plans cross a down link.
///    * **Isolated.** The plan spans more than one node, and an electrical
///      terminal (not a ROADM: every server qualifies) has no incident
///      link alive by [`crosses_dead_link`]'s predicate — down, or
///      without a free wavelength and without groomable headroom for the
///      demand. The global site is checked first, then the selected
///      locals.
///
///    Debug builds still run the rest of such a consideration and assert
///    that it fails.
/// 1. **Triage on live state.** With [`ReschedulePolicy::prefer_repair`],
///    `current`'s links are checked against `state` / `optical` directly;
///    only a dead link ([`crosses_dead_link`]) pays for a live snapshot and
///    a [`Scheduler::propose_repair`], whose result migrates
///    unconditionally. The live snapshot is `ws`'s network state refilled
///    with `state`; the repair is priced on that same copy with `current`
///    released and the repair applied.
/// 2. **One optical freeze.** The optical layer is frozen at most once,
///    in place into `ws`'s view, and that view is shared by handle between
///    the live snapshot and the without-us snapshot below.
/// 3. **One pooled world.** The candidate is proposed against a snapshot
///    holding `ws`'s network state — a full copy of `state` with `current`
///    released, stamps exactly as `clone()` + `release()` leaves them —
///    and priced on that same state, taken back from the snapshot, with
///    the candidate applied, gated by the interruption trade-off.
///
/// The live state is never mutated: every `release` / `apply` here runs on
/// `ws`'s copy. A `Migrate` verdict hands back a [`Proposal`] for the
/// orchestrator's committer to validate and its database to store.
///
/// # Why step 0 changes no caller's behaviour
///
/// * **Cut.** Every scheduler prices a down link at infinity
///   ([`auxiliary_weight`](crate::weights::auxiliary_weight),
///   `spff_weight`), and repair routes around its `BrokenLinks`, which
///   hold every down tree link. A local that no up path reaches cannot be
///   re-attached, so [`Scheduler::propose_repair`] fails or returns
///   `None`, and the full [`Scheduler::propose`] returns `Err`
///   (`Unreachable`, or `Blocked` from SPFF's path probe). Without step
///   0 the consideration ends in an `Err` as well.
/// * **Isolated**, path by path. Every path to or from the terminal
///   starts on one of its incident links, and each of those is dead:
///   * *Repair* cannot re-attach it: `BrokenLinks` holds its dead tree
///     links and prices them at infinity, and `auxiliary_weight` prices
///     its other dead links, which the old trees do not reuse, at
///     infinity.
///   * *`FlexibleMst` re-solve*: the broadcast tree reuses nothing, so
///     `auxiliary_weight` prices every such link at infinity and the tree
///     cannot span the terminal.
///   * *`FixedSpff` re-solve*: its per-segment probe finds no free
///     wavelength on the first hop, and no groomable lightpath either: a
///     lightpath that leaves an electrical terminal holds a wavelength on
///     one of its incident links, and none of those has a lightpath with
///     headroom for the demand.
/// * Every caller treats every `Err` the same way, as "kept". In the
///   program that is one caller, `Pipeline::reconsider`: both event
///   testbeds and the fault-storm harness's `World::reconsider` reach the
///   consideration only through it.
/// * The caller writes the drift-counter reset after the verdict, so that
///   does not change either.
#[allow(clippy::too_many_arguments)]
pub fn consider_in(
    ws: &mut ConsiderWorkspace,
    policy: &ReschedulePolicy,
    scheduler: &dyn Scheduler,
    task: &AiTask,
    current: &Schedule,
    remaining_iterations: u32,
    repairs_since_resolve: u32,
    retry_attempts: u32,
    state: &NetworkState,
    optical: Option<&OpticalState>,
    cluster: &ClusterManager,
    transport: &Transport,
    scratch: &mut ScratchPool,
) -> Result<RescheduleVerdict> {
    // Retry-budget gate: an exhausted task is shed before any proposal
    // work — no proposal, no pricing copy.
    if let Some(retry) = &policy.retry {
        if retry.exhausted(retry_attempts) {
            return Ok(RescheduleVerdict::Shed {
                attempts: retry_attempts,
            });
        }
    }
    let cut = unreachable_terminal(current, state, optical, scratch)?;
    if let (Some(site), false) = (cut, cfg!(debug_assertions)) {
        return Err(SchedError::Unreachable {
            task: task.id,
            site,
        });
    }
    let verdict = weigh(
        ws,
        policy,
        scheduler,
        task,
        current,
        remaining_iterations,
        repairs_since_resolve,
        state,
        optical,
        cluster,
        transport,
        scratch,
    );
    let Some(site) = cut else {
        return verdict;
    };
    // Debug builds only: the rest of an unreachable consideration must fail.
    assert!(
        verdict.is_err(),
        "{}: terminal {site} is unreachable, yet the consideration says {verdict:?}",
        task.id
    );
    Err(SchedError::Unreachable {
        task: task.id,
        site,
    })
}

/// Step 0 of [`consider_in`]: a terminal of `current` that no repair and
/// no re-solve can reach, or `None`. Two rules, in order:
///
/// * **Cut.** The first selected local that hard-down links cut off from
///   the global site. A plan that crosses no down link connects the
///   global site to every selected local by itself, so the BFS (on the
///   pool's tree buffers) runs only when both plans cross one.
/// * **Isolated.** Otherwise, when the plan spans more than one node (a
///   selected local other than the global site), the first electrical
///   terminal — the global site, then the selected locals — whose every
///   incident link is dead by [`crosses_dead_link`]'s predicate: down, or
///   unable to carry the demand optically. A few `can_carry` probes per
///   terminal, no search.
fn unreachable_terminal(
    current: &Schedule,
    state: &NetworkState,
    optical: Option<&OpticalState>,
    scratch: &mut ScratchPool,
) -> Result<Option<NodeId>> {
    let (global, locals) = (current.global_site, &current.selected_locals);
    let down = |l: LinkId| state.is_down(l);
    if current.broadcast.any_link(down) && current.upload.any_link(down) {
        let mut bufs = scratch.take_tree_bufs();
        let reached = reaches_all(state.topo(), global, locals, |l| !down(l), &mut bufs);
        let cut = match reached {
            Ok(true) => Ok(None),
            Ok(false) => Ok(locals.iter().copied().find(|t| !bufs.mask[t.index()])),
            Err(e) => Err(SchedError::Topo(e)),
        };
        scratch.give_back_tree_bufs(bufs);
        if let Some(site) = cut? {
            return Ok(Some(site));
        }
    }
    if locals.iter().all(|t| *t == global) {
        return Ok(None);
    }
    let topo = state.topo();
    let dead = link_dead(state, optical, current.demand_gbps);
    let isolated = |t: &NodeId| {
        topo.node(*t).is_ok_and(|n| !n.kind.is_optical())
            && topo
                .neighbors(*t)
                .is_ok_and(|adj| adj.iter().all(|(_, l)| dead(*l)))
    };
    Ok(std::iter::once(&global)
        .chain(locals)
        .find(|t| isolated(t))
        .copied())
}

/// [`consider_in`] past its two gates: the repair path, then the full
/// re-solve weighed against the interruption.
#[allow(clippy::too_many_arguments)]
fn weigh(
    ws: &mut ConsiderWorkspace,
    policy: &ReschedulePolicy,
    scheduler: &dyn Scheduler,
    task: &AiTask,
    current: &Schedule,
    remaining_iterations: u32,
    repairs_since_resolve: u32,
    state: &NetworkState,
    optical: Option<&OpticalState>,
    cluster: &ClusterManager,
    transport: &Transport,
    scratch: &mut ScratchPool,
) -> Result<RescheduleVerdict> {
    let ConsiderWorkspace {
        net,
        optical: view,
        eval,
    } = ws;

    // Current cost under today's conditions.
    let current_costs = costs_in(eval, task, current, state, cluster, transport)?;

    // Repair-drift guard: a schedule repaired too many consecutive times
    // skips straight to the full re-solve, which rebuilds the tree fresh.
    let drift_tripped = policy
        .resolve_after_repairs
        .is_some_and(|n| repairs_since_resolve >= n);

    // The optical layer is frozen at most once per consideration, into the
    // workspace's view (every handle the previous consideration lent out
    // is gone by now, so it is refilled in place), and lent by handle.
    let mut frozen = false;
    let mut freeze = |view: &mut Option<Arc<OpticalSnapshot>>| {
        let opt = optical?;
        if !frozen {
            frozen = true;
            match view.as_mut().and_then(Arc::get_mut) {
                Some(view) => view.recapture(opt),
                None => *view = Some(Arc::new(opt.snapshot())),
            }
        }
        view.clone()
    };
    // The workspace's network state, overwritten with the live one (a full
    // copy — release-then-reserve does not round-trip in `f64`, so there
    // is no per-link undo) and lent out by value to a snapshot.
    let live_copy = |net: &mut Option<NetworkState>| match net.take() {
        Some(mut world) => {
            world.copy_from(state);
            world
        }
        None => state.clone(),
    };

    // Repair path: live snapshot, incremental surgery, unconditional
    // migration. Any failure (orphan unreachable, rate below floor) falls
    // through to the full re-solve below. An intact schedule — the common
    // case by far — is told apart on live state and never gets here.
    if policy.prefer_repair && !drift_tripped && crosses_dead_link(current, state, optical) {
        let live_snap = NetworkSnapshot::from_parts(live_copy(net), freeze(view));
        let repair = scheduler.propose_repair(task, current, &live_snap, scratch);
        // The live copy the repair was proposed against becomes the world
        // it is priced on.
        let with_candidate = net.insert(live_snap.into_parts().0);
        if let Ok(Some(repair)) = repair {
            current.release(with_candidate)?;
            // Pricing only: the committer re-validates the schedule at
            // migration time; a candidate that no longer applies cleanly
            // here would be rejected there too.
            if repair.schedule.apply(with_candidate).is_ok() {
                let candidate_costs = costs_in(
                    eval,
                    task,
                    &repair.schedule,
                    with_candidate,
                    cluster,
                    transport,
                )?;
                let per_iter_saving =
                    current_costs.iteration_ns() as i64 - candidate_costs.iteration_ns() as i64;
                return Ok(RescheduleVerdict::Migrate {
                    predicted_saving_ns: per_iter_saving * i64::from(remaining_iterations),
                    bandwidth_delta_gbps: candidate_costs.bandwidth_gbps
                        - current_costs.bandwidth_gbps,
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
    let mut without_us = live_copy(net);
    current.release(&mut without_us)?;
    let snap = NetworkSnapshot::from_parts(without_us, freeze(view));
    let candidate = scheduler.propose(task, &current.selected_locals, &snap, scratch);
    // The without-us world is not needed again: it becomes the
    // with-candidate world in place.
    let world = net.insert(snap.into_parts().0);
    let candidate = candidate?;
    candidate.schedule.apply(world)?;
    let candidate_costs = costs_in(eval, task, &candidate.schedule, world, cluster, transport)?;

    let per_iter_saving =
        current_costs.iteration_ns() as i64 - candidate_costs.iteration_ns() as i64;
    let total_saving = per_iter_saving * i64::from(remaining_iterations);
    let cost = (policy.interruption_ns as f64 * policy.threshold) as i64;

    if total_saving > cost {
        Ok(RescheduleVerdict::Migrate {
            new_proposal: Box::new(candidate),
            predicted_saving_ns: total_saving,
            bandwidth_delta_gbps: candidate_costs.bandwidth_gbps - current_costs.bandwidth_gbps,
            repair_delta: None,
        })
    } else {
        Ok(RescheduleVerdict::Keep {
            rejected_saving_ns: total_saving,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedSpff;
    use crate::flexible::FlexibleMst;
    use crate::RoutingPlan;
    use flexsched_compute::{ModelProfile, ServerSpec};
    use flexsched_optical::{softfail, SoftFailure, WavelengthId};
    use flexsched_simnet::DirLink;
    use flexsched_task::TaskId;
    use flexsched_topo::{builders, Direction, Path};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn rig() -> (NetworkState, ClusterManager, AiTask) {
        let topo = Arc::new(builders::metro(&builders::MetroParams::default()));
        let state = NetworkState::new(Arc::clone(&topo));
        let cluster = ClusterManager::from_topology(&topo, ServerSpec::default());
        let servers = topo.servers();
        let task = AiTask {
            id: TaskId(0),
            model: ModelProfile::mobilenet(),
            global_site: servers[0],
            local_sites: servers[1..=8].to_vec(),
            data_utility: Default::default(),
            iterations: 10,
            comm_budget_ms: 10.0,
            arrival_ns: 0,
            class: Default::default(),
        };
        (state, cluster, task)
    }

    fn schedule_with(sched: &dyn Scheduler, state: &NetworkState, task: &AiTask) -> Schedule {
        let snap = NetworkSnapshot::capture(state);
        sched
            .propose_once(task, &task.local_sites, &snap)
            .unwrap()
            .schedule
    }

    #[test]
    fn stable_network_keeps_schedule() {
        let (mut state, cluster, task) = rig();
        let sched = FlexibleMst::paper();
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        let verdict = consider(
            &ReschedulePolicy::default(),
            &sched,
            &task,
            &current,
            8,
            0,
            0,
            &state,
            None,
            &cluster,
            &Transport::tcp(),
            &mut ScratchPool::new(),
        )
        .unwrap();
        assert!(
            matches!(verdict, RescheduleVerdict::Keep { .. }),
            "nothing changed; migration would be pure interruption"
        );
    }

    #[test]
    fn link_failure_triggers_migration() {
        let (mut state, cluster, task) = rig();
        let sched = FixedSpff;
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();

        // Cut a core ring span (ROADM-to-ROADM) the schedule uses: the
        // current schedule stalls while a rerouted candidate detours the
        // ring around the failure.
        let core = current
            .reservations(state.topo())
            .unwrap()
            .into_iter()
            .map(|(dl, _)| dl)
            .find(|dl| {
                let l = state.topo().link(dl.link).unwrap();
                let a = state.topo().node(l.a).unwrap().kind;
                let b = state.topo().node(l.b).unwrap().kind;
                a == flexsched_topo::NodeKind::Roadm && b == flexsched_topo::NodeKind::Roadm
            })
            .expect("metro schedules cross the WDM ring");
        state.set_down(core.link, true).unwrap();

        let verdict = consider(
            &ReschedulePolicy {
                interruption_ns: 1_000,
                threshold: 1.0,
                resolve_after_repairs: None,
                ..ReschedulePolicy::default()
            },
            &sched,
            &task,
            &current,
            10,
            0,
            0,
            &state,
            None,
            &cluster,
            &Transport::tcp(),
            &mut ScratchPool::new(),
        )
        .unwrap();
        match verdict {
            RescheduleVerdict::Migrate {
                predicted_saving_ns,
                new_proposal,
                ..
            } => {
                assert!(predicted_saving_ns > 0);
                for (dl, _) in new_proposal.schedule.reservations(state.topo()).unwrap() {
                    assert_ne!(dl.link, core.link, "candidate must avoid the cut link");
                }
                // The migration hands the committer a schedule to validate.
                assert!(!new_proposal
                    .schedule
                    .reservations(state.topo())
                    .unwrap()
                    .is_empty());
            }
            RescheduleVerdict::Keep { rejected_saving_ns } => {
                panic!("expected migration, saving was {rejected_saving_ns}")
            }
            RescheduleVerdict::Shed { .. } => unreachable!("no retry policy set"),
        }
    }

    #[test]
    fn link_failure_repairs_tree_schedules() {
        let (mut state, cluster, task) = rig();
        let sched = FlexibleMst::paper();
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        let victim = current
            .reservations(state.topo())
            .unwrap()
            .into_iter()
            .map(|(dl, _)| dl.link)
            .find(|l| {
                let link = state.topo().link(*l).unwrap();
                let a = state.topo().node(link.a).unwrap().kind;
                let b = state.topo().node(link.b).unwrap().kind;
                a == flexsched_topo::NodeKind::Roadm && b == flexsched_topo::NodeKind::Roadm
            })
            .expect("metro schedules cross the WDM ring");
        state.set_down(victim, true).unwrap();
        let verdict = consider(
            &ReschedulePolicy::default(),
            &sched,
            &task,
            &current,
            8,
            0,
            0,
            &state,
            None,
            &cluster,
            &Transport::tcp(),
            &mut ScratchPool::new(),
        )
        .unwrap();
        match verdict {
            RescheduleVerdict::Migrate {
                repair_delta,
                new_proposal,
                ..
            } => {
                assert!(
                    repair_delta.is_some(),
                    "tree schedules must take the repair path"
                );
                for (dl, _) in new_proposal.schedule.reservations(state.topo()).unwrap() {
                    assert_ne!(dl.link, victim);
                }
                // Repair proposals are computed against the live state.
                assert_eq!(new_proposal.snapshot_version, state.version());
            }
            RescheduleVerdict::Keep { .. } => panic!("broken tree must migrate"),
            RescheduleVerdict::Shed { .. } => unreachable!("no retry policy set"),
        }
    }

    #[test]
    fn optical_soft_failure_triggers_repair() {
        use flexsched_optical::{softfail, OpticalState, SoftFailure};
        let (mut state, cluster, task) = rig();
        let mut optical = OpticalState::new(state.topo_arc());
        let sched = FlexibleMst::paper();
        let current = {
            let snap = NetworkSnapshot::capture(&state).with_optical(&optical);
            sched
                .propose_once(&task, &task.local_sites, &snap)
                .unwrap()
                .schedule
        };
        current.apply(&mut state).unwrap();
        // Kill every wavelength of a WDM ring span the schedule uses: the link stays
        // up at the IP layer but can no longer carry the task optically.
        let victim = current
            .reservations(state.topo())
            .unwrap()
            .into_iter()
            .map(|(dl, _)| dl.link)
            .find(|l| {
                let link = state.topo().link(*l).unwrap();
                let a = state.topo().node(link.a).unwrap().kind;
                let b = state.topo().node(link.b).unwrap().kind;
                link.wavelengths > 1
                    && a == flexsched_topo::NodeKind::Roadm
                    && b == flexsched_topo::NodeKind::Roadm
            })
            .expect("metro schedules cross the WDM ring");
        let grid = state.topo().link(victim).unwrap().wavelengths;
        softfail::apply(
            &mut optical,
            SoftFailure {
                link: victim,
                severity: grid,
            },
        )
        .unwrap();
        let verdict = consider(
            &ReschedulePolicy::default(),
            &sched,
            &task,
            &current,
            8,
            0,
            0,
            &state,
            Some(&optical),
            &cluster,
            &Transport::tcp(),
            &mut ScratchPool::new(),
        )
        .unwrap();
        match verdict {
            RescheduleVerdict::Migrate {
                repair_delta,
                new_proposal,
                ..
            } => {
                assert!(
                    repair_delta.is_some(),
                    "soft failures must take the repair path"
                );
                for (dl, _) in new_proposal.schedule.reservations(state.topo()).unwrap() {
                    assert_ne!(dl.link, victim, "repair must leave the dead fiber");
                }
                assert!(
                    new_proposal.optical_version.is_some(),
                    "repair against an optical view must be checked for spectrum"
                );
            }
            RescheduleVerdict::Keep { .. } => panic!("spectrally dead span must migrate"),
            RescheduleVerdict::Shed { .. } => unreachable!("no retry policy set"),
        }
    }

    #[test]
    fn drift_guard_forces_full_resolve_when_counter_trips() {
        let (mut state, cluster, task) = rig();
        let sched = FlexibleMst::paper();
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        let victim = current
            .reservations(state.topo())
            .unwrap()
            .into_iter()
            .map(|(dl, _)| dl.link)
            .find(|l| {
                let link = state.topo().link(*l).unwrap();
                let a = state.topo().node(link.a).unwrap().kind;
                let b = state.topo().node(link.b).unwrap().kind;
                a == flexsched_topo::NodeKind::Roadm && b == flexsched_topo::NodeKind::Roadm
            })
            .expect("metro schedules cross the WDM ring");
        state.set_down(victim, true).unwrap();
        let policy = ReschedulePolicy {
            interruption_ns: 1_000,
            threshold: 1.0,
            resolve_after_repairs: Some(3),
            ..ReschedulePolicy::default()
        };
        let verdict = |repairs: u32| {
            consider(
                &policy,
                &sched,
                &task,
                &current,
                8,
                repairs,
                0,
                &state,
                None,
                &cluster,
                &Transport::tcp(),
                &mut ScratchPool::new(),
            )
            .unwrap()
        };
        // Below the bound the repair path still runs...
        match verdict(2) {
            RescheduleVerdict::Migrate { repair_delta, .. } => {
                assert!(
                    repair_delta.is_some(),
                    "counter below bound must still repair"
                )
            }
            RescheduleVerdict::Keep { .. } => panic!("broken tree must migrate"),
            RescheduleVerdict::Shed { .. } => unreachable!("no retry policy set"),
        }
        // ...at the bound the same consideration is forced to re-solve.
        match verdict(3) {
            RescheduleVerdict::Migrate { repair_delta, .. } => {
                assert!(
                    repair_delta.is_none(),
                    "tripped counter must force a full re-solve"
                )
            }
            RescheduleVerdict::Keep { .. } => panic!("broken tree must migrate"),
            RescheduleVerdict::Shed { .. } => unreachable!("no retry policy set"),
        }
    }

    #[test]
    fn full_resolve_policy_skips_repair() {
        let (mut state, cluster, task) = rig();
        let sched = FlexibleMst::paper();
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        let victim = current
            .reservations(state.topo())
            .unwrap()
            .into_iter()
            .map(|(dl, _)| dl.link)
            .find(|l| {
                let link = state.topo().link(*l).unwrap();
                let a = state.topo().node(link.a).unwrap().kind;
                let b = state.topo().node(link.b).unwrap().kind;
                a == flexsched_topo::NodeKind::Roadm && b == flexsched_topo::NodeKind::Roadm
            })
            .expect("metro schedules cross the WDM ring");
        state.set_down(victim, true).unwrap();
        let verdict = consider(
            &ReschedulePolicy {
                interruption_ns: 1_000,
                threshold: 1.0,
                prefer_repair: false,
                ..ReschedulePolicy::default()
            },
            &sched,
            &task,
            &current,
            8,
            0,
            0,
            &state,
            None,
            &cluster,
            &Transport::tcp(),
            &mut ScratchPool::new(),
        )
        .unwrap();
        match verdict {
            RescheduleVerdict::Migrate { repair_delta, .. } => {
                assert!(repair_delta.is_none(), "full_resolve must not repair");
            }
            RescheduleVerdict::Keep { .. } => panic!("broken tree must migrate"),
            RescheduleVerdict::Shed { .. } => unreachable!("no retry policy set"),
        }
    }

    /// Counts the calls into the policy it wraps.
    struct Counting {
        inner: FlexibleMst,
        proposes: AtomicUsize,
        repairs: AtomicUsize,
    }

    impl Counting {
        fn paper() -> Self {
            Counting {
                inner: FlexibleMst::paper(),
                proposes: AtomicUsize::new(0),
                repairs: AtomicUsize::new(0),
            }
        }

        /// (`propose`, `propose_repair`) calls since the last take.
        fn take(&self) -> (usize, usize) {
            (
                self.proposes.swap(0, Ordering::Relaxed),
                self.repairs.swap(0, Ordering::Relaxed),
            )
        }
    }

    impl Scheduler for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn propose(
            &self,
            task: &AiTask,
            selected: &[NodeId],
            snapshot: &NetworkSnapshot,
            scratch: &mut ScratchPool,
        ) -> Result<Proposal> {
            self.proposes.fetch_add(1, Ordering::Relaxed);
            self.inner.propose(task, selected, snapshot, scratch)
        }
        fn propose_repair(
            &self,
            task: &AiTask,
            current: &Schedule,
            snapshot: &NetworkSnapshot,
            scratch: &mut ScratchPool,
        ) -> Result<Option<crate::RepairProposal>> {
            self.repairs.fetch_add(1, Ordering::Relaxed);
            self.inner.propose_repair(task, current, snapshot, scratch)
        }
    }

    /// `sched` considers `current` under the default policy.
    fn consider_default(
        sched: &dyn Scheduler,
        task: &AiTask,
        current: &Schedule,
        state: &NetworkState,
        optical: Option<&OpticalState>,
        cluster: &ClusterManager,
        scratch: &mut ScratchPool,
    ) -> Result<RescheduleVerdict> {
        consider(
            &ReschedulePolicy::default(),
            sched,
            task,
            current,
            8,
            0,
            0,
            state,
            optical,
            cluster,
            &Transport::tcp(),
            scratch,
        )
    }

    /// What the consideration answers without step 0, through a fresh
    /// workspace and pool, rendered for comparison.
    fn weighed(
        sched: &dyn Scheduler,
        task: &AiTask,
        current: &Schedule,
        state: &NetworkState,
        optical: Option<&OpticalState>,
        cluster: &ClusterManager,
    ) -> String {
        let verdict = weigh(
            &mut ConsiderWorkspace::default(),
            &ReschedulePolicy::default(),
            sched,
            task,
            current,
            8,
            0,
            state,
            optical,
            cluster,
            &Transport::tcp(),
            &mut ScratchPool::new(),
        );
        format!("{verdict:?}")
    }

    /// Whether the BFS of step 0 ran on `pool` (a fresh pool holds no tree
    /// buffers; `FlexibleMst` itself never draws them outside a propose).
    fn searched(pool: &mut ScratchPool) -> bool {
        !pool.take_tree_bufs().mask.is_empty()
    }

    #[test]
    fn a_cut_local_is_unreachable_before_anything_is_proposed() {
        let (mut state, cluster, task) = rig();
        let sched = Counting::paper();
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        sched.take();
        // A server hangs off the metro by one access link: both trees
        // cross it, and nothing routes around it.
        let site = task.local_sites[3];
        let access = state.topo().neighbors(site).unwrap();
        assert_eq!(access.len(), 1, "servers are single-homed");
        state.set_down(access[0].1, true).unwrap();
        let mut pool = ScratchPool::new();
        let verdict = consider_default(&sched, &task, &current, &state, None, &cluster, &mut pool);
        assert!(
            matches!(verdict, Err(SchedError::Unreachable { task: t, site: s }) if t == task.id && s == site),
            "{verdict:?}"
        );
        // Release builds price and search nothing; debug builds run the
        // rest of the consideration once to check it fails: a repair that
        // cannot re-attach the local, then a re-solve that cannot reach it.
        let expected = if cfg!(debug_assertions) {
            (1, 1)
        } else {
            (0, 0)
        };
        assert_eq!(sched.take(), expected);
        if !cfg!(debug_assertions) {
            assert!(searched(&mut pool));
        }
    }

    #[test]
    fn a_cut_ring_span_with_a_detour_still_repairs() {
        let (mut state, cluster, task) = rig();
        let sched = Counting::paper();
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        sched.take();
        // A ring span both trees cross: step 0 searches, finds the detour
        // and leaves the consideration to the repair path.
        let (RoutingPlan::Tree { tree: bcast, .. }, RoutingPlan::Tree { tree: up, .. }) =
            (&current.broadcast, &current.upload)
        else {
            panic!("flexible schedules are trees");
        };
        let victim = *bcast
            .links
            .iter()
            .find(|l| {
                let link = state.topo().link(**l).unwrap();
                let a = state.topo().node(link.a).unwrap().kind;
                let b = state.topo().node(link.b).unwrap().kind;
                up.links.contains(l)
                    && a == flexsched_topo::NodeKind::Roadm
                    && b == flexsched_topo::NodeKind::Roadm
            })
            .expect("both metro trees cross the WDM ring");
        state.set_down(victim, true).unwrap();
        let mut pool = ScratchPool::new();
        let verdict = consider_default(&sched, &task, &current, &state, None, &cluster, &mut pool);
        match verdict.unwrap() {
            RescheduleVerdict::Migrate { repair_delta, .. } => {
                assert!(repair_delta.is_some(), "the repair path must migrate")
            }
            other => panic!("a cut ring span with a detour must migrate, got {other:?}"),
        }
        assert_eq!(sched.take(), (0, 1), "one repair, no re-solve");
    }

    #[test]
    fn a_down_link_off_the_tree_is_not_searched() {
        let (mut state, cluster, task) = rig();
        let sched = FlexibleMst::paper();
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        let used: Vec<LinkId> = current
            .reservations(state.topo())
            .unwrap()
            .into_iter()
            .map(|(dl, _)| dl.link)
            .collect();
        let elsewhere = state
            .topo()
            .link_ids()
            .find(|l| !used.contains(l))
            .expect("one task does not cover the metro");
        state.set_down(elsewhere, true).unwrap();
        let mut pool = ScratchPool::new();
        assert_eq!(
            unreachable_terminal(&current, &state, None, &mut pool),
            Ok(None)
        );
        assert!(!searched(&mut pool), "an intact plan needs no search");
        // The verdict is the one the consideration gives without step 0.
        let got = consider_default(
            &sched,
            &task,
            &current,
            &state,
            None,
            &cluster,
            &mut ScratchPool::new(),
        );
        let without = weighed(&sched, &task, &current, &state, None, &cluster);
        assert_eq!(format!("{got:?}"), without);
    }

    /// Light `site`'s one access link on its one wavelength and groom the
    /// lightpath until `headroom` Gbit/s is left: with no free wavelength,
    /// the link carries a demand exactly when `headroom` covers it.
    fn fill_access(state: &NetworkState, optical: &mut OpticalState, site: NodeId, headroom: f64) {
        let topo = state.topo();
        let &[(_, access)] = topo.neighbors(site).unwrap() else {
            panic!("servers are single-homed");
        };
        let link = topo.link(access).unwrap();
        assert_eq!(link.wavelengths, 1, "access links are grey");
        let hop = Path::new(vec![link.a, link.b], vec![access]).unwrap();
        let id = optical.establish_on(hop, WavelengthId(0)).unwrap();
        let capacity = optical.lightpath(id).unwrap().capacity_gbps;
        assert!(capacity > headroom);
        optical.add_groomed(id, capacity - headroom).unwrap();
    }

    /// A running `Counting` schedule for the metro rig, its live state and
    /// an empty optical layer.
    fn optical_rig() -> (
        NetworkState,
        OpticalState,
        ClusterManager,
        AiTask,
        Counting,
        Schedule,
    ) {
        let (mut state, cluster, task) = rig();
        let optical = OpticalState::new(state.topo_arc());
        let sched = Counting::paper();
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        sched.take();
        (state, optical, cluster, task, sched, current)
    }

    #[test]
    fn a_local_no_live_link_can_carry_is_unreachable_before_anything_is_proposed() {
        let (state, mut optical, cluster, task, sched, current) = optical_rig();
        // The local's access link is up but lit to the brim.
        let site = task.local_sites[3];
        fill_access(&state, &mut optical, site, current.demand_gbps / 2.0);
        let mut pool = ScratchPool::new();
        let verdict = consider_default(
            &sched,
            &task,
            &current,
            &state,
            Some(&optical),
            &cluster,
            &mut pool,
        );
        assert!(
            matches!(verdict, Err(SchedError::Unreachable { task: t, site: s }) if t == task.id && s == site),
            "{verdict:?}"
        );
        // Release builds price, repair and propose nothing, and search
        // nothing either (no link is down); debug builds run the rest of
        // the consideration once to check it fails.
        let expected = if cfg!(debug_assertions) {
            (1, 1)
        } else {
            (0, 0)
        };
        assert_eq!(sched.take(), expected);
        if !cfg!(debug_assertions) {
            assert!(!searched(&mut pool));
        }
    }

    #[test]
    fn a_local_with_groomable_headroom_is_not_answered_early() {
        let (state, mut optical, cluster, task, sched, current) = optical_rig();
        // No free wavelength, but the lightpath has room for the demand.
        let site = task.local_sites[3];
        fill_access(&state, &mut optical, site, current.demand_gbps);
        let mut pool = ScratchPool::new();
        assert_eq!(
            unreachable_terminal(&current, &state, Some(&optical), &mut pool),
            Ok(None)
        );
        let got = consider_default(
            &sched,
            &task,
            &current,
            &state,
            Some(&optical),
            &cluster,
            &mut pool,
        );
        let without = weighed(&sched, &task, &current, &state, Some(&optical), &cluster);
        assert_eq!(format!("{got:?}"), without);
    }

    #[test]
    fn an_isolated_global_site_is_unreachable() {
        let (state, mut optical, cluster, task, sched, current) = optical_rig();
        fill_access(&state, &mut optical, task.global_site, 0.0);
        let verdict = consider_default(
            &sched,
            &task,
            &current,
            &state,
            Some(&optical),
            &cluster,
            &mut ScratchPool::new(),
        );
        assert!(
            matches!(verdict, Err(SchedError::Unreachable { task: t, site: s }) if t == task.id && s == task.global_site),
            "{verdict:?}"
        );
    }

    #[test]
    fn without_an_optical_view_only_down_links_isolate() {
        let (mut state, mut optical, cluster, task, sched, current) = optical_rig();
        let site = task.local_sites[3];
        fill_access(&state, &mut optical, site, 0.0);
        let mut pool = ScratchPool::new();
        // Spectrum nobody looks at kills nothing.
        assert_eq!(
            unreachable_terminal(&current, &state, None, &mut pool),
            Ok(None)
        );
        let got = consider_default(&sched, &task, &current, &state, None, &cluster, &mut pool);
        let without = weighed(&sched, &task, &current, &state, None, &cluster);
        assert_eq!(format!("{got:?}"), without);
        // A down access link does.
        let &[(_, access)] = state.topo().neighbors(site).unwrap() else {
            panic!("servers are single-homed");
        };
        state.set_down(access, true).unwrap();
        assert_eq!(
            unreachable_terminal(&current, &state, None, &mut pool),
            Ok(Some(site))
        );
    }

    #[test]
    fn a_terminal_with_one_live_link_left_is_not_isolated() {
        let (mut state, cluster, mut task) = rig();
        let mut optical = OpticalState::new(state.topo_arc());
        // A router is electrical and multi-homed: its ROADM uplink and the
        // access links of its servers.
        let router = state.topo().neighbors(task.local_sites[3]).unwrap()[0].0;
        task.local_sites[3] = router;
        let sched = Counting::paper();
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        let links: Vec<LinkId> = state
            .topo()
            .neighbors(router)
            .unwrap()
            .iter()
            .map(|&(_, l)| l)
            .collect();
        let kill = |optical: &mut OpticalState, l: LinkId| {
            let severity = state.topo().link(l).unwrap().wavelengths;
            softfail::apply(optical, SoftFailure { link: l, severity }).unwrap();
        };
        // The uplink goes; the server links stay.
        let uplink = links
            .iter()
            .copied()
            .find(|l| state.topo().link(*l).unwrap().wavelengths > 1)
            .expect("routers attach to their ROADM by a WDM link");
        kill(&mut optical, uplink);
        let mut pool = ScratchPool::new();
        assert_eq!(
            unreachable_terminal(&current, &state, Some(&optical), &mut pool),
            Ok(None)
        );
        for &l in &links {
            if l != uplink {
                kill(&mut optical, l);
            }
        }
        let verdict = consider_default(
            &sched,
            &task,
            &current,
            &state,
            Some(&optical),
            &cluster,
            &mut pool,
        );
        assert!(
            matches!(verdict, Err(SchedError::Unreachable { site, .. }) if site == router),
            "{verdict:?}"
        );
    }

    #[test]
    fn high_threshold_suppresses_migration() {
        let (mut state, cluster, task) = rig();
        let sched = FixedSpff;
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        let (dl0, _) = current.reservations(state.topo()).unwrap()[0];
        let residual = state.residual_gbps(dl0).unwrap();
        state.add_background(dl0, residual * 0.9).unwrap();

        let verdict = consider(
            &ReschedulePolicy {
                interruption_ns: u64::MAX / 4,
                threshold: 1_000.0,
                resolve_after_repairs: None,
                ..ReschedulePolicy::default()
            },
            &sched,
            &task,
            &current,
            2,
            0,
            0,
            &state,
            None,
            &cluster,
            &Transport::tcp(),
            &mut ScratchPool::new(),
        )
        .unwrap();
        assert!(matches!(verdict, RescheduleVerdict::Keep { .. }));
    }

    #[test]
    fn consider_does_not_mutate_live_state() {
        let (mut state, cluster, task) = rig();
        let sched = FlexibleMst::paper();
        let current = schedule_with(&sched, &state, &task);
        current.apply(&mut state).unwrap();
        let before = state.total_reserved_gbps();
        let version_before = state.version();
        let _ = consider(
            &ReschedulePolicy::default(),
            &sched,
            &task,
            &current,
            5,
            0,
            0,
            &state,
            None,
            &cluster,
            &Transport::tcp(),
            &mut ScratchPool::new(),
        )
        .unwrap();
        assert_eq!(state.total_reserved_gbps(), before);
        assert_eq!(state.version(), version_before, "live state must not move");
        let _ = DirLink::new(flexsched_topo::LinkId(0), Direction::AtoB);
    }
}
