//! Error type for the compute substrate.

use crate::container::ContainerId;
use flexsched_topo::NodeId;
use std::fmt;

/// Errors produced by placement and lifecycle operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeError {
    /// The node is not registered as a server.
    UnknownServer(NodeId),
    /// The container id is not registered.
    UnknownContainer(ContainerId),
    /// Requested resources exceed what a specific server has free.
    ServerFull(NodeId),
}

impl fmt::Display for ComputeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputeError::UnknownServer(n) => write!(f, "unknown server {n}"),
            ComputeError::UnknownContainer(c) => write!(f, "unknown container {c}"),
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
        assert!(ComputeError::UnknownContainer(ContainerId(3))
            .to_string()
            .contains('3'));
    }
}
