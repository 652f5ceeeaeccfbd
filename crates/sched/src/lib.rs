//! # flexsched-sched — the paper's contribution
//!
//! Two schedulers for distributed AI tasks over a telecom/cloud network:
//!
//! * [`FixedSpff`] — the baseline: a **fixed** set of end-to-end paths
//!   between the global model and every local model, found by **s**hortest
//!   **p**ath routing with **f**irst-**f**it wavelength assignment (SPFF,
//!   the paper's ref \[15\] baseline). Model updates are aggregated only at
//!   the global-model node.
//! * [`FlexibleMst`] — the proposal: build auxiliary graphs for the
//!   broadcast and upload procedures, weight each link by **bandwidth
//!   consumption and latency** (links already carrying the task are free to
//!   reuse), find a **minimum spanning tree between the global and local
//!   models**, route along the tree, and **aggregate at the middle and
//!   final nodes** of the upload procedure.
//!
//! ## The snapshot → propose → commit pipeline
//!
//! Scheduling is a three-stage pipeline:
//!
//! 1. **Snapshot** — the orchestrator freezes its view of the world into an
//!    immutable, `Send + Sync` [`NetworkSnapshot`] (frozen residuals and
//!    wavelength occupancy over an `Arc`-shared topology).
//! 2. **Propose** — a [`Scheduler`] is a *pure function* of snapshot +
//!    task: it returns a [`Proposal`] (the [`Schedule`] plus a typed
//!    [`ResourceClaims`] manifest of per-link rate, wavelength and server
//!    claims) and mutates nothing.
//! 3. **Commit** — the orchestrator's committer validates the claims
//!    against *live* state and atomically applies the schedule, or rejects
//!    the proposal with a typed conflict so the caller can propose again.
//!
//! Supporting machinery:
//!
//! * [`Schedule`] / [`RoutingPlan`] — the routing output: rated paths or a
//!   rated (`Arc`-shared) tree for each procedure,
//! * [`evaluate`] — per-iteration latency/bandwidth evaluation producing
//!   the [`flexsched_task::TaskReport`]s behind Figures 3a/3b,
//! * [`selection`] — local-model selection strategies (open challenge #1),
//! * [`reschedule`] — the re-scheduling trade-off policy (interruption vs
//!   bandwidth/latency saving, also open challenge #1).

pub mod dag;
pub mod error;
pub mod evaluate;
pub mod fixed;
pub mod flexible;
pub mod proposal;
pub mod repair;
pub mod reschedule;
pub mod retry;
pub mod schedule;
pub mod selection;
pub mod snapshot;
pub mod weights;

pub use dag::JobTracker;
pub use error::{BlockReason, SchedError};
pub use evaluate::evaluate_schedule;
pub use fixed::FixedSpff;
pub use flexible::FlexibleMst;
pub use proposal::{ClaimsDelta, LinkClaim, Proposal, ResourceClaims, WavelengthClaim};
pub use repair::RepairProposal;
pub use reschedule::{ReschedulePolicy, RescheduleVerdict, RESOLVE_AFTER_REPAIRS};
pub use retry::RetryPolicy;
pub use schedule::{RatedPath, RoutingPlan, Schedule};
pub use selection::SelectionStrategy;
pub use snapshot::NetworkSnapshot;

use flexsched_task::AiTask;
use flexsched_topo::algo::ScratchPool;
use flexsched_topo::NodeId;

/// Convenience result alias for scheduling operations.
pub type Result<T> = std::result::Result<T, SchedError>;

/// A scheduling policy: a pure function of an immutable [`NetworkSnapshot`]
/// and a task, producing a [`Proposal`] and mutating nothing. All state
/// changes flow through the orchestrator's committer, which validates the
/// proposal's claims against live state.
///
/// `Send + Sync` is part of the contract: a policy holds no per-decision
/// state (that lives in the caller's [`ScratchPool`]).
pub trait Scheduler: Send + Sync {
    /// Stable policy name used in reports.
    fn name(&self) -> &'static str;

    /// Propose a schedule for `task` over the already-selected local sites,
    /// computed against `snapshot`. `scratch` provides reusable
    /// Dijkstra/Steiner buffers; a long-lived decision loop keeps one pool
    /// so steady-state proposing allocates nothing.
    fn propose(
        &self,
        task: &AiTask,
        selected: &[NodeId],
        snapshot: &NetworkSnapshot,
        scratch: &mut ScratchPool,
    ) -> Result<Proposal>;

    /// Incrementally repair `current` against the faults visible in
    /// `snapshot` (the *live* state, current schedule still installed):
    /// detach broken subtrees, re-attach orphaned terminals via a
    /// frontier-restricted search, and return a [`RepairProposal`] whose
    /// claims delta covers only the changed links. `Ok(None)` means the
    /// schedule needs no structural repair (or this policy cannot repair —
    /// the default); the caller falls back to ordinary rescheduling.
    ///
    /// Contract: `Ok(None)` whenever no link of the schedule is dead (down,
    /// or — with an optical view — without a free wavelength and without
    /// groomable headroom for the schedule's demand).
    /// [`reschedule::consider`] relies on it: it asks
    /// [`repair::crosses_dead_link`] of live state first and calls this
    /// method only for a schedule that crosses one.
    fn propose_repair(
        &self,
        _task: &AiTask,
        _current: &Schedule,
        _snapshot: &NetworkSnapshot,
        _scratch: &mut ScratchPool,
    ) -> Result<Option<RepairProposal>> {
        Ok(None)
    }

    /// An estimate of what a fresh solve of `current` would cost. Always
    /// `Ok(None)`: no policy overrides it and nothing in the workspace
    /// calls it. It survives because the benchmark adapter forwards it
    /// (ROADMAP item 1 step B).
    fn estimate_fresh_cost(
        &self,
        _task: &AiTask,
        _current: &Schedule,
        _snapshot: &NetworkSnapshot,
        _scratch: &mut ScratchPool,
    ) -> Result<Option<f64>> {
        Ok(None)
    }

    /// [`propose`](Scheduler::propose) with a throwaway scratch pool — a
    /// convenience for tests, examples and one-shot callers.
    fn propose_once(
        &self,
        task: &AiTask,
        selected: &[NodeId],
        snapshot: &NetworkSnapshot,
    ) -> Result<Proposal> {
        let mut scratch = ScratchPool::new();
        self.propose(task, selected, snapshot, &mut scratch)
    }
}
