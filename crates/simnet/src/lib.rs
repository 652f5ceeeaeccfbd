//! # flexsched-simnet — flow-level network simulator
//!
//! The simulation substrate standing in for the paper's hardware testbed
//! (ROADMs, IP routers, servers, traffic generator). It provides:
//!
//! * [`SimTime`] — nanosecond-resolution simulated time (the event
//!   engine that advances it lives in `flexsched-simcore`),
//! * [`NetworkState`] — per-direction link reservations, background load and
//!   failure state; the "networking conditions" the orchestrator reports to
//!   its database. A copy of it, with its mutation stamp, is the IP-layer
//!   view schedulers propose against in the snapshot → propose → commit
//!   pipeline,
//! * [`transport`] — TCP vs RDMA transfer models (open challenge #2 of the
//!   poster): header overhead, per-packet CPU cost, loss/retransmission and
//!   the long-distance window limit of RDMA,
//! * [`transfer`] — end-to-end completion-time estimation for model-weight
//!   transfers over a reserved path,
//! * [`traffic`] — the seeded background ("live") traffic generator,
//! * [`fault`] — link fault injection schedules.
//!
//! The simulator is *flow-level*: model-weight exchanges and background
//! traffic are flows with reserved/occupied rates, not per-packet events.
//! This matches the granularity at which the paper's orchestrator observes
//! and schedules the network (bandwidth pipes and latencies), while keeping
//! 30-task sweeps fast enough to property-test.

pub mod error;
pub mod fault;
pub mod state;
pub mod time;
pub mod traffic;
pub mod transfer;
pub mod transport;

pub use error::SimError;
pub use state::{DirLink, LinkUsage, NetworkState};
pub use time::SimTime;
pub use transfer::{transfer_time_ns, TransferSpec};
pub use transport::Transport;

/// Convenience result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
