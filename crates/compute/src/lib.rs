//! # flexsched-compute — the computing substrate
//!
//! Stands in for the paper's "Linux OS and dockers ... deployed in several
//! servers to support AI tasks", managed by the *computing manager*:
//!
//! * [`ModelProfile`] — AI model families with parameter counts, update
//!   sizes and per-iteration compute cost ("AI tasks can be implemented
//!   using different ML models that include different parameters"),
//! * [`ServerSpec`] / [`ServerState`] — server resources and occupancy,
//! * [`Container`] — a docker-like unit hosting a global or local model,
//! * [`ClusterManager`] — places each container on the server its task
//!   names (the task's global or local site) if that server fits it,
//! * [`training`] — the training- and aggregation-latency models that feed
//!   the total-latency metric of Figure 3a.
//!
//! All durations are plain `u64` nanoseconds so the crate stays independent
//! of the simulator; `flexsched-simnet`'s `SimTime` wraps the same unit.

pub mod container;
pub mod error;
pub mod model;
pub mod placement;
pub mod server;
pub mod training;

pub use container::{Container, ContainerId, ModelRole};
pub use error::ComputeError;
pub use model::ModelProfile;
pub use placement::ClusterManager;
pub use server::{ServerSpec, ServerState};

/// Convenience result alias for compute operations.
pub type Result<T> = std::result::Result<T, ComputeError>;
