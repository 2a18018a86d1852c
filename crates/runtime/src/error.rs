//! Typed errors of the cluster runtime.
//!
//! Construction and execution mistakes (empty clusters, bad placements, double runs)
//! and infrastructure failures (spawn errors, panicked workers) surface here instead
//! of as `panic!`/`expect` deep in the run loop. `thiserror` is unavailable offline,
//! so the impls are hand-written.

use std::fmt;

use jessy_core::ConfigError;
use jessy_net::NetError;

/// Everything that can go wrong building or running a [`crate::Cluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A network-layer error (empty fabric, invalid fault plan, …).
    Net(NetError),
    /// A profiler configuration field is outside its documented domain.
    Config(ConfigError),
    /// The cluster was configured with zero nodes or zero threads.
    InvalidTopology {
        /// Configured node count.
        n_nodes: usize,
        /// Configured thread count.
        n_threads: usize,
    },
    /// An explicit placement does not fit the topology.
    InvalidPlacement(String),
    /// `run` was called a second time on the same cluster.
    AlreadyRun,
    /// A task could not be started: its stack could not be mapped.
    SpawnFailed(String),
    /// An application task panicked (or the cooperative task set deadlocked, in
    /// which case the executor poisons every task and the first one is named).
    TaskPanicked {
        /// Index of the panicked application thread.
        thread: usize,
    },
    /// The master correlation daemon panicked.
    MasterPanicked,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Net(e) => write!(f, "network error: {e}"),
            RuntimeError::Config(e) => write!(f, "invalid profiler config: {e}"),
            RuntimeError::InvalidTopology { n_nodes, n_threads } => write!(
                f,
                "cluster needs at least one node and one thread (got {n_nodes} nodes, {n_threads} threads)"
            ),
            RuntimeError::InvalidPlacement(why) => write!(f, "invalid placement: {why}"),
            RuntimeError::AlreadyRun => write!(f, "Cluster::run may only be called once"),
            RuntimeError::SpawnFailed(what) => write!(f, "failed to spawn {what}"),
            RuntimeError::TaskPanicked { thread } => {
                write!(f, "application thread {thread} panicked")
            }
            RuntimeError::MasterPanicked => write!(f, "master daemon panicked"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Net(e) => Some(e),
            RuntimeError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for RuntimeError {
    fn from(e: NetError) -> Self {
        RuntimeError::Net(e)
    }
}

impl From<ConfigError> for RuntimeError {
    fn from(e: ConfigError) -> Self {
        RuntimeError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = RuntimeError::from(NetError::EmptyFabric);
        assert!(e.to_string().contains("at least one node"));
        assert!(std::error::Error::source(&e).is_some());
        let e = RuntimeError::TaskPanicked { thread: 3 };
        assert!(e.to_string().contains("thread 3"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
