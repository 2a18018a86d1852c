//! # jessy-runtime — the distributed JVM runtime
//!
//! Ties the substrates together into the system of the paper's Fig. 2: a cluster of
//! worker nodes each hosting application threads over the Global Object Space, plus a
//! master node running the correlation-computing daemon, the adaptive rate controller
//! and the global load balancer.
//!
//! * [`cluster`] — building and running a simulated cluster; each application (Java)
//!   thread is a cooperatively-scheduled task of the deterministic executor
//!   (carried by a parked OS thread) holding a [`thread::JThread`] handle, so a
//!   given `(exec_seed, exec_jitter)` pair replays the whole run bit-identically.
//! * [`thread`] — the application-facing API: allocation, read/write barriers,
//!   locks/barriers (interval boundaries), stack frames, compute charging.
//! * [`master`] — the coordinator: a core ([`master::MasterCore`]) that ingests
//!   OAL batches, builds the TCM in rounds, steers per-class sampling rates and
//!   plans placements, behind one boundary ([`master::MasterBoundary`]) through
//!   which it reads the cluster, broadcasts rate changes, triggers resampling
//!   walks and posts directives.
//! * [`migration`] — the thread migration engine with optional sticky-set prefetching,
//!   plus the induced-cost measurement used to validate the cost model.
//! * [`balancer`] — correlation-driven thread placement (the paper's stated purpose
//!   for the profiles; Section V future work, built here as the X1 extension).
//! * [`metrics`] — the run report every benchmark table reads.


#![warn(missing_docs)]
pub mod balancer;
pub mod cluster;
pub mod dynamic;
pub mod error;
pub mod master;
pub mod metrics;
pub mod migration;
pub mod thread;

pub use balancer::{LoadBalancer, MoveFilter, PlacementPlan, RefineOutcome};
pub use cluster::{Cluster, ClusterBuilder, InitCtx};
pub use dynamic::{Directive, PlacementTelemetry, PlanInputs, PlannedMigration, RebalanceConfig};
pub use error::RuntimeError;
/// The journal a run emits into, and the folds over it (workload crates read
/// their per-round series from it).
pub use jessy_obs as obs;
pub use master::{
    AppliedRateChange, ClosedRound, EpochOal, Ingest, MasterLedger, MasterOutput, MasterState,
    ProfilerCheckpoint, RoundScheduler,
};
pub use metrics::{DeterministicReport, RunReport};
pub use migration::MigrationReport;
pub use thread::JThread;
