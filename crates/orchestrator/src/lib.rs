//! # flexsched-orchestrator — the Figure-2 control plane
//!
//! The paper's experimental framework is a logically-centralised control
//! plane: "An orchestrator is used to report networking conditions to the
//! database, and configure routing paths according to the scheduling
//! policy. An AI task manager is responsible for managing new AI tasks and
//! storing them into database." This crate reproduces that loop:
//!
//! * [`Database`] — the shared store of network conditions, optical and
//!   compute state, and the running tasks' schedules behind one `RwLock`
//!   (a cheaply clonable handle); storing a schedule reserves its
//!   bandwidth and taking it out releases it, so the stored schedules are
//!   the network's rule set (the figure's SDN controller); the snapshot →
//!   propose → commit pipeline proposes against the view its private
//!   `select_and_snapshot` freezes from that store under one read lock,
//! * [`Committer`] — the commit stage: validates each proposal's schedule
//!   against live state, then stores that schedule in the database
//!   (which reserves it) and grooms its wavelengths, or rejects it with a
//!   typed [`Conflict`],
//! * [`AiTaskManager`] — validates a task and has the computing manager
//!   place its containers at arrival and free them at exit (it holds no
//!   state: the cluster keeps each task's replicas under the task's id),
//! * [`CommitPlane`] — what both testbed drivers hold: the one
//!   [`Committer`] plus the state reads and scenario writes beside it,
//! * [`EventTestbed`] — the end-to-end harness that regenerates the
//!   paper's evaluation on the `flexsched-simcore` discrete-event engine:
//!   tasks arrive (self-rescheduling arrivals), get selected/placed, their
//!   proposals committed, run their iterations under background traffic
//!   and fault/repair event pairs, depart at their actual completion
//!   times and emit [`flexsched_task::TaskReport`]s — with true per-task
//!   time-in-system tails and bounded-memory million-task horizons,
//! * [`DagEventTestbed`] — the DAG-job driver: stage frontiers
//!   gang-admitted all-or-nothing through [`CommitPlane::apply_gang`],
//!   stage-granular fault repair, per-job makespan and
//!   critical-path-inflation metrics ([`DagStats`]).
//!
//! The two drivers share one private pipeline module, which also owns the
//! task lifecycle: world construction, one admission path from snapshot to
//! start (`admit`; a monolithic task is a gang of one), the reconsider
//! step with its repair-vs-migrate commit protocol and the reschedule pass
//! a fault, a heal or a periodic check runs, and one way out for every
//! exit (`retire`) are written once. Each driver adds only its arrival
//! source, its admission rule (the gate, or a frontier's drained data) and
//! what a departure or a shed means to it. The fault-storm differential
//! (test-only) drives the same pipeline.

pub mod admission;
pub mod commit;
pub(crate) mod dag_testbed;
pub mod database;
pub mod error;
pub(crate) mod event_testbed;
#[cfg(test)]
mod faultstorm;
pub(crate) mod managers;
#[cfg(test)]
mod overload;
mod pipeline;
pub mod plane;
pub mod scenario;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats, ClassBucket, Verdict};
pub use commit::{CommitReceipt, Committer, Conflict, GangConflict, Intent, Validation};
pub use dag_testbed::{DagEventTestbed, DagStats, DagTestbedConfig, DagTopology, RepairScope};
pub use database::Database;
pub use error::OrchError;
pub use event_testbed::{EventRunOutcome, EventTestbed, MemoryMode, SojournStats};
pub use managers::AiTaskManager;
pub use plane::{CommitPlane, PlaneConfig};
pub use scenario::{RunSummary, TestbedConfig};

/// Convenience result alias for orchestrator operations.
pub type Result<T> = std::result::Result<T, OrchError>;
