//! The master JVM's correlation-computing daemon (Fig. 2).
//!
//! Runs as one executor task of a cluster run, next to the workers: drains OAL batches
//! from the mailbox and groups them into TCM rounds **by interval number** — round
//! `r` covers intervals `[r·ipr, (r+1)·ipr)` of every thread. Grouping by interval
//! instead of arrival order keeps the correlation map deterministic under thread
//! scheduling: a pair of threads touching an object in the same interval always lands
//! in the same round.
//!
//! Round assembly is delegated to the [`RoundScheduler`], which tolerates a lossy
//! network (see [`crate::cluster::ClusterBuilder::faults`]):
//!
//! * **Deduplication** — a second copy of the same (thread, interval) OAL is dropped.
//! * **Deadline close** — normally a round closes once *every* thread's interval
//!   watermark passes the round's end (threads emit even empty OALs so the watermark
//!   is well-defined). When OALs can be lost that guarantee dies with them, so with
//!   `ProfilerConfig::round_deadline_intervals` set, a round also closes once the
//!   *fastest* thread is that many grace intervals past the end — a stalled or
//!   silenced thread can no longer wedge the pipeline.
//! * **Late arrivals** — an OAL for an already-closed round is buffered and folded
//!   into the cumulative TCM at the end of the run (it still improves the final map;
//!   it just can't steer the controller retroactively).
//!
//! Each closed round carries its **coverage** — the fraction of expected
//! (thread, interval) OALs that actually arrived — and the
//! [`jessy_core::AdaptiveController`]
//! only acts on rounds above the configured coverage floor, degrading gracefully to
//! fixed-rate profiling instead of thrashing rates on loss-shaped phantoms.
//!
//! The daemon measures its *real* CPU time spent building TCM rounds; Table III's
//! "TCM Computing Time" column reads this, because in our reproduction the TCM
//! construction is a real computation (the paper likewise ran it on a dedicated
//! machine so it would not distort execution times).
//!
//! # Crash-stop recovery (DESIGN.md §12)
//!
//! The daemon also survives **process-level** crash-stop failures scheduled by
//! [`jessy_net::FaultPlan::master_crashes`]:
//!
//! * Every `ProfilerConfig::checkpoint_every_rounds` closed rounds it snapshots a
//!   [`ProfilerCheckpoint`]: a clone of its [`MasterState`] (the round
//!   scheduler, the cumulative TCM, the adaptive controller, the rate table, the
//!   [`MasterLedger`] and the cost inputs of the last close) and the lengths of
//!   its accepted-OAL log and of its log of the cost inputs each close read. The
//!   logs past those lengths are the replay WAL (modeling a durable log / worker
//!   retransmit buffers); without `record_oals` both are drained at each
//!   snapshot, so they hold only what came since the latest one.
//! * A master crash window kills the daemon's *volatile* state; OAL batches in
//!   flight while it is down are deferred by the transport, not dropped. The first
//!   batch at/after the window's end triggers a **restore**: the latest checkpoint
//!   (the round-zero state if none was taken) is reinstated, the log's tail past
//!   its length is re-ingested deterministically,
//!   and the master **epoch** is bumped and broadcast with the rate table. Each
//!   round the replay re-closes reads the cost inputs its live close logged, so
//!   it journals the same `cost_fraction`. When no
//!   message faults dropped OALs, the recovered TCM is bit-identical to the
//!   uninterrupted run's; with drops, round coverage reflects the loss and the
//!   lossy-network machinery (DESIGN.md §8) degrades gracefully.
//! * Arriving OALs stamped with a **stale epoch** that duplicate already-replayed
//!   state are *fenced* (counted, never double-folded); stale-but-new OALs are still
//!   accepted — fencing them too would turn every in-flight batch at restore time
//!   into data loss.
//! * Threads on nodes that crash more than `ProfilerConfig::quarantine_after_crashes`
//!   times are **quarantined** out of the round-coverage denominator (and the
//!   complete-close watermark rule), so a flapping node cannot starve adaptive
//!   convergence.
//!
//! # Layout
//!
//! The master is a core and a thin loop around it. [`MasterCore`]
//! (`pipeline.rs`) holds every piece of master state and runs the stages;
//! [`MasterState`] (`state.rs`) is what a restore reinstates, [`RoundScheduler`]
//! included; every read of and write to the live cluster crosses the one
//! [`MasterBoundary`] (`boundary.rs`), which [`LiveBoundary`] implements over
//! the running cluster. The daemon's executor task runs [`drive`] over the live
//! boundary; a replay runs the same [`drive`] over a recorded one.

mod boundary;
mod pipeline;
mod state;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use jessy_core::{Oal, Tcm};
use jessy_net::{Mailbox, TaskSpec};

use crate::cluster::ClusterShared;
use crate::dynamic::{PlacementTelemetry, PlannedMigration};

pub use boundary::{CostInputs, LiveBoundary, MasterBoundary, MasterSetup};
pub use pipeline::MasterCore;
pub use state::{ClosedRound, Ingest, MasterLedger, MasterState, ProfilerCheckpoint, RoundScheduler};

/// An OAL batch stamped with the sender's view of the master epoch (learned at
/// startup, from rejoin handshakes and from rate-change broadcasts). The scheduler
/// uses the stamp to *fence* stale duplicates after a master restore instead of
/// double-folding them.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOal {
    /// Master epoch the sender last observed.
    pub epoch: u64,
    /// The batch itself.
    pub oal: Oal,
}

/// One applied rate change, for the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppliedRateChange {
    /// Round in which the change was decided.
    pub round: u64,
    /// The class name.
    pub class_name: String,
    /// New rate label ("4X", "full").
    pub new_rate: String,
    /// The relative distance that triggered it.
    pub relative_distance: f64,
    /// Objects re-tagged by the resampling walk.
    pub resampled_objects: usize,
    /// Whether the change was a post-convergence drift re-activation (as opposed
    /// to the pre-convergence refinement loop).
    pub drift: bool,
}

/// Everything the master produced during a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MasterOutput {
    /// The cumulative thread correlation map.
    pub tcm: Tcm,
    /// OAL batches ingested (including empty interval contexts and late arrivals,
    /// excluding duplicates).
    pub oals_ingested: u64,
    /// TCM rounds closed.
    pub rounds: u64,
    /// Distinct objects organized over all rounds (Σ per-round `M`).
    pub objects_organized: u64,
    /// Real nanoseconds spent ingesting OALs and building TCM rounds.
    pub tcm_build_real_ns: u64,
    /// Rate changes applied by the adaptive controller.
    pub rate_changes: Vec<AppliedRateChange>,
    /// Rounds the controller skipped for insufficient coverage (each one is
    /// journaled as a `RoundSkipped` with its coverage).
    pub skipped_rounds: u64,
    /// The lowest fraction of expected (thread, interval) OALs any closed round
    /// received (`None` if none closed). Each round's own value is in its
    /// journaled `RoundClosed`. The benchmark reads this name; ROADMAP 1 renames it.
    pub round_coverage: Option<f64>,
    /// Rounds closed by the deadline rather than by complete watermarks.
    pub deadline_rounds: u64,
    /// OALs that arrived after their round had closed (folded into the final TCM).
    pub late_oals: u64,
    /// Duplicated OALs discarded by the deduplicator.
    pub duplicate_oals: u64,
    /// Migration directives issued by the dynamic balancer, if enabled.
    pub planned_migrations: Vec<PlannedMigration>,
    /// Placement-engine telemetry: planning epochs, directives, vetoes, fenced
    /// directives and applied migrations (each epoch's intra-node fractions
    /// are journaled as a `PlacementPlanned`). All zero when rebalancing is
    /// off.
    pub placement: PlacementTelemetry,
    /// The raw OAL stream, when `ProfilerConfig::record_oals` was set.
    pub oal_log: Vec<Oal>,
    /// Checkpoints snapshotted (`ProfilerConfig::checkpoint_every_rounds`).
    pub checkpoints_taken: u64,
    /// Master crash-restarts performed (checkpoint restore + replay).
    pub restores: u64,
    /// OALs re-ingested from the accepted-OAL log across all restores.
    pub replayed_oals: u64,
    /// Stale-epoch OALs fenced after a restore (duplicates of replayed state).
    pub fenced_oals: u64,
    /// Nodes expelled from the coverage denominator for crashing more than
    /// `ProfilerConfig::quarantine_after_crashes` times.
    pub quarantined_nodes: u64,
    /// Classes the adaptive controller had frozen by the end of the run.
    pub converged_classes: u64,
    /// The master epoch at the end of the run (0 = never crashed).
    pub final_epoch: u64,
    /// Rounds whose measured profiling cost (the `RoundClosed` event's
    /// `cost_fraction`) exceeded `ProfilerConfig::overhead_budget` (0 without
    /// a budget). A ledger counter: a restore rolls it back with the rounds it
    /// counts, and the re-closed rounds count again.
    pub budget_over_rounds: u64,
    /// Degradation-ladder rungs actually taken by the adaptive controller
    /// (over-budget rounds minus settling rounds and those the ladder was
    /// already exhausted on).
    pub budget_degrades: u64,
    /// Drift re-activations applied: converged classes the controller
    /// un-converged after a post-convergence `E_ABS` spike
    /// (`ProfilerConfig::drift_threshold`). Always 0 with drift disabled.
    pub drift_reactivations: u64,
}

/// Drive a master core over `fx` until the run ends: drain the mailbox into the
/// core (the boundary blocks while it is empty), finish, and return the output.
/// The live daemon and a replay run this same function.
pub fn drive(fx: &mut impl MasterBoundary) -> MasterOutput {
    let mut core = MasterCore::new(fx);
    while let Some(batch) = fx.next_batch() {
        core.ingest(batch, fx);
    }
    core.finish(fx);
    core.output()
}

/// Stack of the master daemon's task.
const MASTER_STACK_BYTES: usize = 2 * 1024 * 1024;

/// The master daemon as executor task `n_threads` of a run: it [`drive`]s a
/// core over the live boundary passed through `tap` (the identity for
/// [`crate::Cluster::try_run`]) and leaves the output and the boundary in
/// `out`. A panicking master poisons the executor, so the worker tasks abort
/// deterministically instead of blocking forever; `out` stays `None`.
pub(crate) fn daemon_task<'a, B: MasterBoundary + 'static>(
    shared: Rc<ClusterShared>,
    mailbox: Mailbox<EpochOal>,
    tap: impl FnOnce(LiveBoundary) -> B + 'static,
    out: &'a mut Option<(MasterOutput, B)>,
) -> TaskSpec<'a> {
    TaskSpec::new(MASTER_STACK_BYTES, move || {
        let exec = std::sync::Arc::clone(&shared.exec);
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut fx = tap(LiveBoundary { shared, mailbox });
            (drive(&mut fx), fx)
        }));
        match ran {
            Ok(done) => *out = Some(done),
            Err(_) => exec.poison(),
        }
    })
}
