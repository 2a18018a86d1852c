//! The structured event vocabulary of the journal.
//!
//! Events carry plain integers (`u16` node ids, `u32` thread/object/class ids)
//! and strings so the crate sits below every other substrate. Variant names are
//! the wire vocabulary: they become the JSON-lines `kind` key and the Chrome
//! `trace_event` name, so renaming one is a format change.

use serde::{Deserialize, Serialize};

/// One journal entry: *what* happened ([`EventKind`]) plus the canonical-order
/// key *(t_ns, source, seq)* described in the crate docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulated nanoseconds on the emitting thread's clock.
    pub t_ns: u64,
    /// Stable emitter id: application threads `0..n_threads`, master `n_threads`.
    pub source: u32,
    /// Per-source sequence number assigned by the sink (program order).
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The canonical total-order key (see the determinism argument in the crate
    /// docs): simulated time, then source id, then the source's program order.
    #[inline]
    pub fn order_key(&self) -> (u64, u32, u64) {
        (self.t_ns, self.source, self.seq)
    }
}

/// Everything the runtime journals, spanning all four layers.
///
/// Net events are emitted by the fabric, GOS events by the protocol engine's
/// slow paths (never the hit lane), profiler events at interval boundaries, and
/// runtime events by the worker threads and the master daemon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    // ---------------------------------------------------------------- net
    /// A message was accounted on the fabric (after fault filtering).
    MessageSent {
        /// Sending node.
        from: u16,
        /// Receiving node.
        to: u16,
        /// Message class name (`MsgClass` Display form).
        class: String,
        /// Wire bytes including the class header.
        bytes: u64,
    },
    /// The fault injector dropped a message.
    MessageDropped {
        /// Sending node.
        from: u16,
        /// Receiving node.
        to: u16,
        /// Message class name.
        class: String,
    },
    /// The fault injector duplicated a message (both copies accounted).
    MessageDuplicated {
        /// Sending node.
        from: u16,
        /// Receiving node.
        to: u16,
        /// Message class name.
        class: String,
    },
    /// A partition window severed this message's link (one-way traffic lost to
    /// the cut; synchronous traffic paid retransmit cycles instead).
    MessagePartitioned {
        /// Sending node.
        from: u16,
        /// Receiving node.
        to: u16,
        /// Message class name.
        class: String,
    },
    // ---------------------------------------------------------------- gos
    /// A real object fault (cold miss or invalidated copy refetched from home).
    ObjectFault {
        /// Faulting object id.
        obj: u32,
        /// Its class id.
        class: u32,
        /// Home node serving the fetch.
        home: u16,
        /// Node the faulting thread runs on.
        node: u16,
        /// Payload bytes fetched.
        bytes: u64,
    },
    /// A profiler-armed false-invalid trap fired (correlation fault).
    FalseInvalidTrap {
        /// Trapping object id.
        obj: u32,
        /// Its class id.
        class: u32,
        /// Node the thread runs on.
        node: u16,
    },
    /// An object's home was relocated.
    HomeMigration {
        /// Migrated object id.
        obj: u32,
        /// Old home node.
        from: u16,
        /// New home node.
        to: u16,
    },
    /// Write notices were applied at an acquire (version-based invalidation).
    NoticesApplied {
        /// Applying thread.
        thread: u32,
        /// Number of notices processed.
        count: u64,
    },
    // ---------------------------------------------------------------- core
    /// A thread opened a new profiling interval.
    IntervalOpened {
        /// The thread.
        thread: u32,
        /// Interval number (per-thread, monotonic).
        interval: u64,
    },
    /// A thread closed a profiling interval and produced an OAL.
    IntervalClosed {
        /// The thread.
        thread: u32,
        /// Interval number just closed.
        interval: u64,
        /// OAL entries recorded during the interval.
        entries: u64,
    },
    /// The adaptive controller changed a class's sampling rate.
    RateChanged {
        /// Coordinator round the change applied in.
        round: u64,
        /// Class name.
        class: String,
        /// New rate label (e.g. `"1/2X"`).
        new_rate: String,
        /// The relative TCM distance that justified the change.
        relative_distance: f64,
    },
    /// A class's TCM was declared converged by the controller.
    ClassConverged {
        /// Coordinator round.
        round: u64,
        /// Class name.
        class: String,
    },
    /// A converged class's map drifted past the drift threshold and the
    /// controller un-converged it (stepping it one rate finer). The class is
    /// live again; its eventual re-convergence emits a fresh `ClassConverged`,
    /// so the journal distance between the two bounds the re-convergence lag.
    ClassDrifted {
        /// Coordinator round the re-activation applied in.
        round: u64,
        /// Class name.
        class: String,
        /// The relative TCM distance that tripped the drift detector.
        relative_distance: f64,
        /// The finer rate the class re-activated at.
        new_rate: String,
    },
    // ---------------------------------------------------------------- runtime
    /// The coordinator closed a TCM round: the record of the round, which
    /// [`crate::analyze::round_series`] folds back into the per-round series
    /// (a restore re-closes the rounds after its checkpoint; the last close
    /// counts).
    RoundClosed {
        /// Round number.
        round: u64,
        /// OAL batches folded into the round.
        oals: u64,
        /// Fraction of expected OALs that arrived.
        coverage: f64,
        /// The round was forced closed by the deadline.
        deadline_hit: bool,
        /// Profiling cost over the application compute charged since the
        /// previous close (the budget loop's input, with or without a budget).
        /// It reads the other tasks' clocks at the close: the one journal field
        /// a change to the schedule contract may move (DESIGN.md §15).
        cost_fraction: f64,
    },
    /// The controller skipped rate adaptation for a low-coverage round.
    RoundSkipped {
        /// Round number.
        round: u64,
        /// Observed coverage.
        coverage: f64,
        /// Configured floor it fell below.
        min_coverage: f64,
    },
    /// The coordinator persisted a profiler checkpoint.
    CheckpointTaken {
        /// Rounds closed at checkpoint time.
        round: u64,
        /// Coordinator epoch.
        epoch: u64,
    },
    /// The coordinator restored from its latest checkpoint after a crash.
    MasterRestored {
        /// The new (bumped) epoch.
        epoch: u64,
        /// OAL batches replayed from the post-checkpoint log.
        replayed: u64,
    },
    /// A crashed node suppressed an OAL send while down.
    CrashSuppressed {
        /// The down node.
        node: u16,
        /// The thread whose OAL was suppressed.
        thread: u32,
        /// The interval it covered.
        interval: u64,
    },
    /// A restarted node re-entered the cluster via the rejoin handshake.
    NodeRejoined {
        /// The rejoining node.
        node: u16,
        /// The thread driving the handshake.
        thread: u32,
        /// Coordinator epoch adopted on rejoin.
        epoch: u64,
    },
    /// A flapping node was quarantined out of the coverage denominator.
    NodeQuarantined {
        /// The quarantined node.
        node: u16,
        /// Crash count that tripped the threshold.
        crashes: u32,
    },
    /// A thread migrated between nodes.
    ThreadMigrated {
        /// The migrating thread.
        thread: u32,
        /// Origin node.
        from: u16,
        /// Destination node.
        to: u16,
        /// Sticky-set objects prefetched at the destination.
        prefetched: u64,
    },
    /// An OAL could not be posted to the master mailbox and its interval's
    /// samples are lost to the profile (the degradation path of
    /// `RunReport::oal_post_failures`).
    OalPostFailed {
        /// The thread whose OAL was lost.
        thread: u32,
        /// The interval it covered.
        interval: u64,
    },
    /// An OAL batch was deferred across an active partition window; it ships
    /// after the heal (or becomes an `OalPostFailed` loss if the partition
    /// never heals).
    OalDeferred {
        /// The thread whose OAL was deferred.
        thread: u32,
        /// The interval it covers.
        interval: u64,
        /// Virtual nanosecond at which the cut is known to heal (`u64::MAX`
        /// for a permanent partition).
        heal_ns: u64,
    },
    /// A pending OAL batch was dropped because the master's bounded mailbox
    /// was full. Its interval is prorated out of round coverage.
    OalShed {
        /// The thread that shed the batch.
        thread: u32,
        /// The interval of the dropped batch.
        interval: u64,
    },
    /// The adaptive controller took one degradation-ladder rung because the
    /// round's measured profiling cost exceeded `ProfilerConfig::overhead_budget`
    /// (`RoundOutcome::Degraded`; an exhausted ladder still journals its no-op).
    BudgetDegraded {
        /// The over-budget round.
        round: u64,
        /// The rung taken (`jessy_core::DegradeStep::label`).
        step: String,
        /// The measured cost as a fraction of charged compute.
        cost_fraction: f64,
    },
    /// The placement engine closed a planning epoch at a round boundary and
    /// posted migration directives.
    PlacementPlanned {
        /// The round whose close triggered the plan.
        round: u64,
        /// The master epoch the directives are stamped with.
        epoch: u64,
        /// Directives issued by this plan.
        directives: u64,
        /// Intra-node correlation fraction before the plan, under the planning view.
        intra_before: f64,
        /// Intra-node correlation fraction the plan targets.
        intra_after: f64,
    },
    /// A thread honoured a migration directive at its barrier safe point.
    MigrationApplied {
        /// The migrated thread.
        thread: u32,
        /// Origin node.
        from: u16,
        /// Destination node.
        to: u16,
        /// The master epoch the directive carried.
        epoch: u64,
        /// Context + prefetched sticky-set bytes moved.
        bytes: u64,
    },
    /// A migration directive carried a stale master epoch (planned before a
    /// crash/restore) and was dropped at the barrier instead of applied —
    /// the placement analogue of OAL epoch fencing.
    DirectiveFenced {
        /// The thread that fenced its directive.
        thread: u32,
        /// The epoch the directive was stamped with.
        directive_epoch: u64,
        /// The master epoch current at the barrier.
        current_epoch: u64,
    },
}

impl EventKind {
    /// The stable event name (the enum variant name): journal `kind` key and
    /// Chrome `trace_event` name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MessageSent { .. } => "MessageSent",
            EventKind::MessageDropped { .. } => "MessageDropped",
            EventKind::MessageDuplicated { .. } => "MessageDuplicated",
            EventKind::MessagePartitioned { .. } => "MessagePartitioned",
            EventKind::ObjectFault { .. } => "ObjectFault",
            EventKind::FalseInvalidTrap { .. } => "FalseInvalidTrap",
            EventKind::HomeMigration { .. } => "HomeMigration",
            EventKind::NoticesApplied { .. } => "NoticesApplied",
            EventKind::IntervalOpened { .. } => "IntervalOpened",
            EventKind::IntervalClosed { .. } => "IntervalClosed",
            EventKind::RateChanged { .. } => "RateChanged",
            EventKind::ClassConverged { .. } => "ClassConverged",
            EventKind::ClassDrifted { .. } => "ClassDrifted",
            EventKind::RoundClosed { .. } => "RoundClosed",
            EventKind::RoundSkipped { .. } => "RoundSkipped",
            EventKind::CheckpointTaken { .. } => "CheckpointTaken",
            EventKind::MasterRestored { .. } => "MasterRestored",
            EventKind::CrashSuppressed { .. } => "CrashSuppressed",
            EventKind::NodeRejoined { .. } => "NodeRejoined",
            EventKind::NodeQuarantined { .. } => "NodeQuarantined",
            EventKind::ThreadMigrated { .. } => "ThreadMigrated",
            EventKind::OalPostFailed { .. } => "OalPostFailed",
            EventKind::OalDeferred { .. } => "OalDeferred",
            EventKind::OalShed { .. } => "OalShed",
            EventKind::BudgetDegraded { .. } => "BudgetDegraded",
            EventKind::PlacementPlanned { .. } => "PlacementPlanned",
            EventKind::MigrationApplied { .. } => "MigrationApplied",
            EventKind::DirectiveFenced { .. } => "DirectiveFenced",
        }
    }
}
