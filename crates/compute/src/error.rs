//! Error type for the compute substrate.

use flexsched_topo::NodeId;
use std::fmt;

/// Errors produced by placement and lifecycle operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeError {
    /// The node is not registered as a server.
    UnknownServer(NodeId),
    /// No replica is placed for the task id.
    UnknownTask(u64),
    /// Requested resources exceed what a specific server has free.
    ServerFull(NodeId),
}

impl fmt::Display for ComputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeError::UnknownServer(n) => write!(f, "unknown server {n}"),
            ComputeError::UnknownTask(t) => write!(f, "no replicas placed for task {t}"),
            ComputeError::ServerFull(n) => write!(f, "server {n} lacks free resources"),
        }
    }
}

impl std::error::Error for ComputeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ComputeError::UnknownServer(NodeId(1))
            .to_string()
            .contains("n1"));
        assert!(ComputeError::ServerFull(NodeId(2))
            .to_string()
            .contains("n2"));
        assert!(ComputeError::UnknownTask(3).to_string().contains('3'));
    }
}
