//! Error type for the routing-scheme construction and queries.

use std::error::Error;
use std::fmt;

use en_graph::NodeId;

/// Errors produced while constructing or querying a routing scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoutingError {
    /// The parameter `k` must be at least 1.
    InvalidK {
        /// The rejected value.
        k: usize,
    },
    /// The input graph must be connected (a routing scheme cannot deliver
    /// across components).
    DisconnectedGraph,
    /// The input graph has no vertices.
    EmptyGraph,
    /// A queried vertex id is out of range.
    NodeOutOfRange {
        /// The offending vertex.
        node: NodeId,
        /// The number of vertices.
        n: usize,
    },
    /// `Find-tree` exhausted all levels without finding a tree containing both
    /// endpoints. With high probability this cannot happen; it indicates that
    /// a low-probability sampling event failed (rerun with a different seed).
    NoCommonTree {
        /// The packet source.
        from: NodeId,
        /// The packet destination.
        to: NodeId,
    },
    /// Forwarding inside a cluster tree failed.
    TreeRouting(String),
    /// A forwarded hop is not an edge of the graph the route is weighed in:
    /// the scheme (or snapshot) was built for a different graph.
    NonEdgeHop {
        /// The hop's tail.
        from: NodeId,
        /// The hop's head.
        to: NodeId,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::InvalidK { k } => write!(f, "parameter k must be at least 1, got {k}"),
            RoutingError::DisconnectedGraph => write!(f, "input graph is not connected"),
            RoutingError::EmptyGraph => write!(f, "input graph has no vertices"),
            RoutingError::NodeOutOfRange { node, n } => {
                write!(f, "vertex {node} out of range for graph with {n} vertices")
            }
            RoutingError::NoCommonTree { from, to } => write!(
                f,
                "no cluster tree contains both {from} and {to}; a low-probability sampling event failed"
            ),
            RoutingError::TreeRouting(msg) => write!(f, "tree routing failed: {msg}"),
            RoutingError::NonEdgeHop { from, to } => write!(
                f,
                "forwarded hop {from}->{to} is not an edge of the host graph"
            ),
        }
    }
}

impl Error for RoutingError {}

impl From<en_tree_routing::scheme::TreeRoutingError> for RoutingError {
    fn from(e: en_tree_routing::scheme::TreeRoutingError) -> Self {
        RoutingError::TreeRouting(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(RoutingError::InvalidK { k: 0 }.to_string().contains("k"));
        assert!(RoutingError::DisconnectedGraph
            .to_string()
            .contains("connected"));
        assert!(RoutingError::EmptyGraph.to_string().contains("no vertices"));
        assert!(RoutingError::NodeOutOfRange { node: 7, n: 3 }
            .to_string()
            .contains('7'));
        assert!(RoutingError::NoCommonTree { from: 1, to: 2 }
            .to_string()
            .contains("cluster tree"));
        assert!(RoutingError::TreeRouting("x".into())
            .to_string()
            .contains('x'));
        assert!(RoutingError::NonEdgeHop { from: 4, to: 9 }
            .to_string()
            .contains("4->9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<RoutingError>();
    }
}
