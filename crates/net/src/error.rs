//! Typed errors of the network layer.
//!
//! The simulated interconnect historically `assert!`ed its way through misuse; a
//! production-scale runtime wants an empty cluster or a dead mailbox to surface as a
//! recoverable error instead of a panic. (`thiserror` is unavailable offline, so the
//! `Display`/`Error` impls are written by hand.)

use std::fmt;

use crate::ids::NodeId;

/// Everything that can go wrong in the net layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A fabric was requested with zero nodes.
    EmptyFabric,
    /// A node id is outside the fabric.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Nodes in the fabric.
        n_nodes: usize,
    },
    /// A message was posted to a mailbox whose receiver is gone.
    MailboxClosed {
        /// The mailbox owner the message was addressed to.
        destination: NodeId,
    },
    /// A message was posted to a bounded mailbox that is at capacity. The caller
    /// owns the backpressure decision: requeue, shed, or merge (see the runtime's
    /// shed policies) — the mailbox never drops silently.
    MailboxFull {
        /// The mailbox owner the message was addressed to.
        destination: NodeId,
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// A fault plan failed validation (e.g. probability outside `[0, 1]`).
    InvalidFaultPlan(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::EmptyFabric => write!(f, "fabric needs at least one node"),
            NetError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "node {node} out of range (fabric has {n_nodes} nodes)")
            }
            NetError::MailboxClosed { destination } => {
                write!(f, "mailbox of {destination} is closed (receiver dropped)")
            }
            NetError::MailboxFull { destination, capacity } => {
                write!(f, "mailbox of {destination} is full (capacity {capacity})")
            }
            NetError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_culprit() {
        let e = NetError::NodeOutOfRange {
            node: NodeId(7),
            n_nodes: 2,
        };
        assert!(e.to_string().contains("n7"));
        assert!(e.to_string().contains("2 nodes"));
        assert!(NetError::EmptyFabric.to_string().contains("at least one node"));
        let e = NetError::MailboxFull {
            destination: NodeId(3),
            capacity: 16,
        };
        assert!(e.to_string().contains("n3"));
        assert!(e.to_string().contains("capacity 16"));
    }
}
