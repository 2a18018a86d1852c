//! # jessy-net — simulated cluster interconnect
//!
//! This crate is the lowest substrate of the `jessy` reproduction of
//! *"Adaptive Sampling-Based Profiling Techniques for Optimizing the Distributed JVM
//! Runtime"* (IPDPS 2010). The paper ran on the HKU Gideon 300 cluster over Fast
//! Ethernet; we have no cluster, so every protocol message is **accounted** instead of
//! transmitted: the [`Fabric`] records per-class message counts and byte volumes
//! (reproducing the "GOS message volume" vs "OAL message volume" columns of Table III)
//! and charges a configurable [`LatencyModel`] onto per-thread **simulated clocks**
//! ([`clock`]), from which deterministic "execution times" are derived.
//!
//! Nothing in here knows about objects or profiling; higher crates (`jessy-gos`,
//! `jessy-core`, `jessy-runtime`) drive it.


#![warn(missing_docs)]
pub mod clock;
pub mod error;
pub mod executor;
pub mod fabric;
pub mod fault;
pub mod ids;
pub mod latency;
pub mod mailbox;
pub mod message;
pub mod stats;

pub use clock::{ClockBoard, ClockHandle, SimNanos};
pub use error::NetError;
pub use executor::{DetExecutor, TaskSpec, POISON_MSG};
pub use fabric::Fabric;
pub use fault::{
    oal_fault_key, CrashWindow, FaultDecision, FaultInjector, FaultPlan, FaultStats,
    MasterCrashWindow, PartitionWindow, SlowWindow, StallWindow,
};
pub use ids::{NodeId, ThreadId};
pub use latency::LatencyModel;
pub use mailbox::{Envelope, Mailbox};
pub use message::MsgClass;
pub use stats::{ClassStats, NetworkStats};
