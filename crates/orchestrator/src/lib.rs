//! # flexsched-orchestrator — the Figure-2 control plane
//!
//! The paper's experimental framework is a logically-centralised control
//! plane: "An orchestrator is used to report networking conditions to the
//! database, and configure routing paths according to the scheduling
//! policy. An AI task manager is responsible for managing new AI tasks and
//! storing them into database." This crate reproduces that loop:
//!
//! * [`Database`] — the shared store of network conditions, tasks,
//!   schedules and measurements behind one `RwLock` (a cheaply clonable
//!   handle); the snapshot → propose → commit pipeline proposes against
//!   the view its private `select_and_snapshot` freezes from that store
//!   under one read lock ([`Database::snapshot`] freezes the same view
//!   in one call),
//! * [`Committer`] — the commit stage: validates each proposal's typed
//!   resource claims against live state and atomically installs or rejects
//!   it with a typed [`Conflict`]; every reservation, wavelength and
//!   migration is reconciled here,
//! * [`SdnController`] — turns schedules into flow rules and applies them
//!   to the network state (driven by the committer),
//! * [`AiTaskManager`] — task admission, retry and lifecycle,
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
pub mod sdn;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats, ClassBucket, Verdict};
pub use commit::{CommitReceipt, Committer, Conflict, GangConflict, Intent, Validation};
pub use dag_testbed::{DagEventTestbed, DagStats, DagTestbedConfig, DagTopology, RepairScope};
pub use database::Database;
pub use error::OrchError;
pub use event_testbed::{EventRunOutcome, EventTestbed, MemoryMode, SojournStats};
pub use managers::AiTaskManager;
pub use plane::{CommitPlane, PlaneConfig};
pub use scenario::{RunSummary, TestbedConfig};
pub use sdn::SdnController;

/// Convenience result alias for orchestrator operations.
pub type Result<T> = std::result::Result<T, OrchError>;
