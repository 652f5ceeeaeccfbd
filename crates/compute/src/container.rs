//! Containers: docker-like units hosting global or local models.

use crate::server::ResourceRequest;
use flexsched_topo::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a placed container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContainerId(pub u64);

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Whether a container hosts the global model or a local model replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelRole {
    /// The aggregating global model (one per task).
    Global,
    /// A local training replica.
    Local,
}

/// A placed container.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Container {
    /// Identifier assigned by the cluster manager.
    pub id: ContainerId,
    /// Host server.
    pub server: NodeId,
    /// Owning AI-task id (task crate scope).
    pub task: u64,
    /// Global or local replica.
    pub role: ModelRole,
    /// Resources claimed.
    pub resources: ResourceRequest,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_id() {
        assert_eq!(ContainerId(4).to_string(), "c4");
    }

    #[test]
    fn roles_are_distinguishable() {
        assert_ne!(ModelRole::Global, ModelRole::Local);
    }
}
