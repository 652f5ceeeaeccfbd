//! # flexsched-task — distributed AI task model and workload generation
//!
//! A *distributed AI task* in the poster's sense: one global model plus `N`
//! local models that synchronise every iteration via a broadcast (G → Li)
//! and an upload (Li → G) procedure. This crate defines:
//!
//! * [`AiTask`] — the task record the AI task manager stores in the
//!   database: model profile, sites, iteration count, bandwidth demand and
//!   per-site data-utility scores (for selection strategies),
//! * [`TaskReport`] — the measured outcome (training/communication latency
//!   breakdown and consumed bandwidth) that feeds Figures 3a/3b,
//! * [`generator`] — the seeded workload generator reproducing the paper's
//!   evaluation ("we generate 30 AI tasks") across a sweep of local-model
//!   counts.

pub mod dag;
pub mod generator;
pub mod report;
pub mod task;

pub use dag::{AiJob, DataEdge, JobId, Stage, StageKind};
pub use generator::{
    generate_workload, DagConfig, JobStream, WorkloadConfig, WorkloadStream, PRODUCTION_CLASS_MIX,
};
pub use report::TaskReport;
pub use task::{AiTask, ServiceClass, TaskId};
