//! # jessy-gos — the Global Object Space
//!
//! This crate reimplements, from scratch, the object-sharing substrate the paper's
//! profiling techniques live in: the **Global Object Space (GOS)** of the JESSICA2
//! distributed JVM, running **home-based lazy release consistency** (HLRC, Zhou et al.
//! OSDI'96) over the simulated interconnect of `jessy-net`.
//!
//! ## Protocol model
//!
//! * Every shared object has a **home node** — the node that allocated it. The home
//!   holds the master copy ([`object::ObjectCore`]).
//! * A node accessing a remote object **faults** the latest copy from the home
//!   (accounted as an `ObjFetch`/`ObjData` round trip) and installs a **cache copy**.
//! * Writes to a cache copy first create a **twin**; at release time (unlock or
//!   barrier) a word-level **diff** against the twin is flushed to the home
//!   ([`twin`]), the home version is bumped, and a **write notice** is published.
//! * At acquire time (lock or barrier) a node applies pending write notices,
//!   invalidating stale cache copies. This yields HLRC's *at-most-once* property:
//!   within one interval, a given object faults (and can therefore be access-logged)
//!   at most once per node — the property Section II.A of the paper builds on.
//!
//! One deliberate simplification vs. true vector-timestamped HLRC: write notices are
//! kept in a single global history and lock acquires apply *all* pending notices
//! (conservative over-invalidation) instead of only causally-ordered ones. This keeps
//! the protocol trivially coherent for the barrier-dominant SPLASH-2 workloads while
//! preserving every property the profiler relies on. The simplification is recorded in
//! DESIGN.md.
//!
//! ## Profiling hooks
//!
//! The profiler (crate `jessy-core`) does **not** live inside the GOS. Instead:
//!
//! * every access entry carries the paper's 2-bit access state including the
//!   **false-invalid** value ([`object::AccessState`]), packed into a single word of
//!   the owning thread's arena ([`heap::ThreadSpace`]), plus a per-class **sequence
//!   number** and a **sampled** tag on the shared header ([`object`]);
//! * [`heap::ThreadSpace::arm_next_interval`] and [`heap::ThreadSpace::arm_traps`]
//!   let the profiler arm correlation faults epoch-lazily (no accessed-set walk at
//!   the interval boundary);
//! * every read/write returns an [`protocol::AccessOutcome`] describing exactly what
//!   happened (hit, false-invalid fault, cold/real fault, remote bytes moved), which
//!   the runtime forwards to the profiler.
//!
//! Simulated time is charged through [`costs::CostModel`]; network traffic through
//! `jessy-net`'s [`jessy_net::Fabric`].


#![warn(missing_docs)]
pub mod class;
pub mod costs;
pub mod heap;
pub mod object;
pub mod prime;
pub mod protocol;
pub mod sync;
pub mod twin;

pub use class::{ClassId, ClassInfo, ClassRegistry};
pub use costs::CostModel;
pub use heap::ThreadSpace;
pub use object::{AccessState, ObjectCore, ObjectId, RealState};
pub use protocol::{AccessKind, AccessOutcome, Gos, GosConfig, ReadMember, Served};
pub use sync::LockId;
