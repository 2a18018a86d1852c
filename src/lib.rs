//! # jessy — adaptive sampling-based profiling for a distributed-JVM-style runtime
//!
//! A from-scratch Rust reproduction of *"Adaptive Sampling-Based Profiling Techniques
//! for Optimizing the Distributed JVM Runtime"* (Lam, Luo, Wang — IPDPS 2010), the
//! profiling subsystem of the JESSICA2 distributed JVM, together with every substrate
//! it needs:
//!
//! * [`net`] — simulated cluster interconnect (traffic accounting + latency model +
//!   per-thread simulated clocks);
//! * [`gos`] — the Global Object Space: home-based lazy release consistency over
//!   per-thread object caches, with the 2-bit access states (including *false
//!   invalid*), per-class sequence numbers and sampled tags the profiler drives;
//! * [`stack`] — simulated Java thread stacks (frames, slots, visited flags);
//! * [`core`] — **the paper's contribution**: adaptive object sampling, OAL/TCM
//!   correlation tracking with the `E_ABS`/`E_EUC` accuracy metrics, the adaptive
//!   rate controller, Fig. 8 stack sampling, and sticky-set footprinting/resolution;
//! * [`runtime`] — the DJVM: clusters, application threads, the master daemon,
//!   migration with sticky-set prefetch, the correlation-driven load balancer;
//! * [`pagedsm`] — the page-grain baseline (page layout and induced sharing patterns),
//!   kept with the benchmark harness that draws Fig. 1 from it;
//! * [`workloads`] — SOR, Barnes-Hut and Water-Spatial ports (Table I);
//! * [`obs`] — the deterministic observability layer: a structured event journal
//!   keyed by simulated time and JSON-lines / Chrome `trace_event` exporters
//!   (zero-cost when no sink is attached); a run's counters are the fields of its
//!   [`RunReport`](runtime::RunReport).
//!
//! ## Quickstart
//!
//! ```
//! use jessy::prelude::*;
//!
//! // A 2-node cluster running 4 threads with correlation tracking at rate 1X.
//! let mut cluster = Cluster::builder()
//!     .nodes(2)
//!     .threads(4)
//!     .profiler(ProfilerConfig::tracking_at(SamplingRate::NX(1)))
//!     .build();
//! let report = jessy::workloads::sor::run_on(&mut cluster, jessy::workloads::sor::SorConfig::small());
//! let tcm = &report.master.as_ref().unwrap().tcm;
//! assert!(tcm.total() > 0.0, "the profiler recovered a sharing profile");
//! ```


#![warn(missing_docs)]
pub use jessy_core as core;
pub use jessy_gos as gos;
pub use jessy_net as net;
pub use jessy_obs as obs;
pub use jessy_bench::pagedsm;
pub use jessy_runtime as runtime;
pub use jessy_stack as stack;
pub use jessy_workloads as workloads;

/// The most commonly used types in one import.
pub mod prelude {
    pub use jessy_core::{
        accuracy_abs, accuracy_euc, e_abs, e_euc, ConfigError, FootprintConfig, FootprintMode,
        Oal, ProfilerConfig, ProfilingMode, SamplingRate, StackSamplingConfig, Tcm,
    };
    pub use jessy_gos::{AccessState, ClassId, CostModel, Gos, GosConfig, LockId, ObjectId};
    pub use jessy_net::{
        ClockBoard, FaultPlan, FaultStats, LatencyModel, MsgClass, NodeId, StallWindow, ThreadId,
    };
    pub use jessy_obs::{
        to_chrome_trace, to_json_lines, EventKind, JournalSink, TraceEvent, TraceSink,
    };
    pub use jessy_runtime::{
        Cluster, DeterministicReport, JThread, LoadBalancer, RunReport, RuntimeError,
    };
    pub use jessy_workloads::{WorkloadKind, WorkloadPreset};
}
