//! Error type for topology construction and queries.

use crate::ids::{LinkId, NodeId};
use std::fmt;

/// Errors produced by topology operations and graph algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum TopoError {
    /// A node id referenced an element that does not exist.
    UnknownNode(NodeId),
    /// A link id referenced an element that does not exist.
    UnknownLink(LinkId),
    /// A link was added with identical endpoints.
    SelfLoop(NodeId),
    /// No path exists between the given endpoints.
    Disconnected { from: NodeId, to: NodeId },
    /// An algorithm required a non-empty terminal/vertex set.
    EmptyInput(&'static str),
    /// A negative or non-finite edge weight was supplied to an algorithm that
    /// requires non-negative weights.
    BadWeight { link: LinkId, weight: f64 },
    /// More terminals than the Steiner metric closure's packed index format
    /// can address (terminal indices are 32-bit Voronoi labels; see
    /// [`crate::algo::mehlhorn`]). A checked bail-out instead of silent
    /// truncation.
    TooManyTerminals { count: usize, max: usize },
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopoError::UnknownLink(l) => write!(f, "unknown link {l}"),
            TopoError::SelfLoop(n) => write!(f, "self-loop on node {n}"),
            TopoError::Disconnected { from, to } => {
                write!(f, "no path from {from} to {to}")
            }
            TopoError::EmptyInput(what) => write!(f, "empty input: {what}"),
            TopoError::BadWeight { link, weight } => {
                write!(f, "bad weight {weight} on link {link}")
            }
            TopoError::TooManyTerminals { count, max } => {
                write!(
                    f,
                    "{count} terminals exceed the metric closure's packed index capacity ({max})"
                )
            }
        }
    }
}

impl std::error::Error for TopoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(
            TopoError::UnknownNode(NodeId(1)).to_string(),
            "unknown node n1"
        );
        assert_eq!(
            TopoError::UnknownLink(LinkId(2)).to_string(),
            "unknown link l2"
        );
        assert_eq!(
            TopoError::SelfLoop(NodeId(3)).to_string(),
            "self-loop on node n3"
        );
        assert_eq!(
            TopoError::Disconnected {
                from: NodeId(0),
                to: NodeId(1)
            }
            .to_string(),
            "no path from n0 to n1"
        );
        assert!(TopoError::EmptyInput("terminals")
            .to_string()
            .contains("terminals"));
        assert!(TopoError::BadWeight {
            link: LinkId(0),
            weight: -1.0
        }
        .to_string()
        .contains("-1"));
    }
}
