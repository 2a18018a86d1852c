//! The master JVM's correlation-computing daemon (Fig. 2).
//!
//! Runs on its own OS thread for the duration of a cluster run: drains OAL batches
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
//! (thread, interval) OALs that actually arrived — and the [`AdaptiveController`]
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
//!   [`ProfilerCheckpoint`] — clones of the live [`RoundScheduler`],
//!   [`AdaptiveController`] and [`ReducerState`] (the cumulative map and the
//!   top-k head), the rate table, the [`MasterLedger`] and the length of its
//!   accepted-OAL log. The log past that length is the replay WAL (modeling a
//!   durable log / worker retransmit buffers); without `record_oals` the log is
//!   drained at each snapshot, so it holds only the OALs since the latest one.
//! * A master crash window kills the daemon's *volatile* state; OAL batches in
//!   flight while it is down are deferred by the transport, not dropped. The first
//!   batch at/after the window's end triggers a **restore**: the latest checkpoint
//!   is reinstated, the log's tail past its length is re-ingested deterministically,
//!   and the master **epoch** is bumped and broadcast with the rate table. When no
//!   message faults dropped OALs, the recovered TCM, top-k head and sketch are
//!   bit-identical to the uninterrupted run's; with drops, round coverage reflects
//!   the loss and the lossy-network machinery (DESIGN.md §8) degrades gracefully.
//! * Arriving OALs stamped with a **stale epoch** that duplicate already-replayed
//!   state are *fenced* (counted, never double-folded); stale-but-new OALs are still
//!   accepted — fencing them too would turn every in-flight batch at restore time
//!   into data loss.
//! * Threads on nodes that crash more than `ProfilerConfig::quarantine_after_crashes`
//!   times are **quarantined** out of the round-coverage denominator (and the
//!   complete-close watermark rule), so a flapping node cannot starve adaptive
//!   convergence.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use jessy_core::adaptive::apply_rate_change;
use jessy_core::sampling::ClassGapState;
use jessy_core::{
    AdaptiveController, CorrelationView, DegradeStep, HomeAwareAnalyzer, Oal, ProfilerConfig,
    RateCause, ReducedRound, Reducer, ReducerState, RoundOutcome, Tcm, TreeRoundStats,
};
use jessy_gos::ClassId;
use jessy_net::{ClockHandle, Mailbox, MasterCrashWindow, MsgClass, NodeId, ThreadId};
use jessy_obs::EventKind;

use crate::cluster::ClusterShared;
use crate::dynamic::{plan_epoch, PlacementTelemetry, PlannedMigration, RebalanceConfig};
use crate::error::RuntimeError;

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

/// A round on which the adaptive controller declined to act because too few of its
/// OALs arrived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkippedRateChange {
    /// The distrusted round.
    pub round: u64,
    /// Its OAL coverage, below the configured floor.
    pub coverage: f64,
}

/// One class's sampling state captured when a TCM round closed, for the
/// convergence timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassRoundState {
    /// The class name.
    pub class_name: String,
    /// Rate label in force after this round's decisions ("4X", "full").
    pub rate: String,
    /// The relative TCM distance that drove a rate change this round, or `0.0`
    /// when the controller left the class alone.
    pub relative_distance: f64,
    /// Whether the controller considers the class converged (rate frozen).
    pub converged: bool,
}

/// One row of the convergence timeline: coverage plus the rate trajectory of
/// every registered class at the moment round `round` closed. The timeline is
/// change-point encoded: a row is recorded only when it differs from the
/// previous row in anything but `round`, so a row describes every round from
/// `round` up to (excluding) the next row's — a run that converges and stays
/// converged costs a handful of rows, not one per round. The report exposes
/// the vector as [`MasterOutput::timeline`], turning "did the controller
/// converge, and how fast" into data instead of archaeology over
/// `rate_changes`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundTimeline {
    /// The first closed round this row describes.
    pub round: u64,
    /// Fraction of expected (thread, interval) OALs that arrived.
    pub coverage: f64,
    /// Closed by the grace deadline rather than complete watermarks.
    pub deadline_hit: bool,
    /// Per-class state, in class-id order.
    pub classes: Vec<ClassRoundState>,
}

/// Aggregate telemetry of the tree-mode reduction pipeline (all zero when the
/// classic flat coordinator is in use), reported as [`MasterOutput::reduce`].
///
/// It counts reduction work actually done, replays included: like
/// `MasterOutput::replayed_oals`, it is not rolled back on a master restore, so
/// a round the restored master re-closes from the replayed log tail counts twice.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReduceTelemetry {
    /// Rounds (including the end-of-run late fold, if any, and replayed rounds)
    /// reduced by the tree.
    pub tree_rounds: u64,
    /// Object records that crossed nodes in the owner shuffle.
    pub shuffle_records: u64,
    /// Modeled wire bytes of the owner shuffle.
    pub shuffle_bytes: u64,
    /// Sparse cells shipped across aggregation-tree edges.
    pub partial_cells: u64,
    /// Modeled wire bytes of partial-TCM messages on real (non-self) edges.
    pub partial_bytes: u64,
    /// Subtree partials the master folded (Σ over rounds; ≤ fanout each).
    pub master_partials: u64,
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
    /// Rounds the controller skipped for insufficient coverage.
    pub skipped_rate_changes: Vec<SkippedRateChange>,
    /// Per closed round, the fraction of expected (thread, interval) OALs received
    /// (1.0 on a fault-free network).
    pub round_coverage: Vec<f64>,
    /// Rounds closed by the deadline rather than by complete watermarks.
    pub deadline_rounds: u64,
    /// OALs that arrived after their round had closed (folded into the final TCM).
    pub late_oals: u64,
    /// Duplicated OALs discarded by the deduplicator.
    pub duplicate_oals: u64,
    /// Migration directives issued by the dynamic balancer, if enabled.
    pub planned_migrations: Vec<PlannedMigration>,
    /// Placement-engine telemetry: planning epochs, directives, vetoes, fenced
    /// directives, applied migrations and the intra-fraction trajectory. All
    /// zero/empty when rebalancing is off.
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
    /// Convergence timeline (rate trajectory + coverage), change-point
    /// encoded: see [`RoundTimeline`].
    pub timeline: Vec<RoundTimeline>,
    /// The `ProfilerConfig::tcm_top_k` hottest correlated pairs `(i, j, weight)`,
    /// hottest first — the streaming view the placement engine consumes. Empty
    /// when `tcm_top_k` is 0.
    pub top_pairs: Vec<(u32, u32, f64)>,
    /// Tree-reduction telemetry; all zero in flat mode.
    pub reduce: ReduceTelemetry,
    /// Straggler demotions performed by the gray-failure detector
    /// (`ProfilerConfig::straggler_lag_intervals`).
    pub stragglers: u64,
    /// Rounds whose measured profiling cost exceeded
    /// `ProfilerConfig::overhead_budget`: the entries of `round_cost_fraction`
    /// above it (0 without a budget).
    pub budget_over_rounds: u64,
    /// Degradation-ladder rungs actually taken by the adaptive controller
    /// (over-budget rounds minus settling rounds and those the ladder was
    /// already exhausted on).
    pub budget_degrades: u64,
    /// Per closed round, the measured profiling cost as a fraction of the
    /// charged application compute since the previous close (the budget loop's
    /// input; recorded whether or not a budget is configured). The compute
    /// term sums the *other* tasks' clock cells as the master finds them at
    /// round close, and a parked thread's clock stands at its next *visible*
    /// action (DESIGN.md §15): private work it ran ahead on is already charged
    /// (and, under full-trace logging, already counted in the entry term).
    /// A pure function of the run's inputs — but of the schedule contract too,
    /// which makes this the one report field a change to the private/visible
    /// classification may move.
    pub round_cost_fraction: Vec<f64>,
    /// Drift re-activations applied: converged classes the controller
    /// un-converged after a post-convergence `E_ABS` spike
    /// (`ProfilerConfig::drift_threshold`). Always 0 with drift disabled.
    pub drift_reactivations: u64,
}

/// How the [`RoundScheduler`] classified one arriving OAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Counted toward an open round.
    Accepted,
    /// A (thread, interval) pair already seen — discarded.
    Duplicate,
    /// Arrived after its round closed — buffered for the end-of-run fold.
    Late,
    /// A stale-epoch copy of state the restored master already holds — fenced
    /// (discarded and counted separately from network duplicates).
    Fenced,
}

/// One round the scheduler declared closed.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedRound {
    /// Round id (rounds close strictly in order).
    pub round: u64,
    /// The round's non-empty OALs, in arrival order.
    pub oals: Vec<Oal>,
    /// Fraction of expected (thread, interval) OALs received, in `[0, 1]`.
    pub coverage: f64,
    /// Closed by the grace deadline instead of complete watermarks.
    pub deadline_hit: bool,
}

/// Groups an out-of-order, lossy, possibly duplicated OAL stream into TCM rounds.
///
/// Extracted from the daemon loop so that fault-tolerance semantics are directly
/// testable without spinning up a cluster: feed OALs with [`RoundScheduler::ingest`],
/// collect closed rounds with [`RoundScheduler::ready_rounds`], and finish with
/// [`RoundScheduler::flush`] + [`RoundScheduler::take_late`].
///
/// The scheduler is its own crash-recovery snapshot: a [`ProfilerCheckpoint`]
/// holds a clone, and a restore assigns it back. Its containers are ordered, so
/// two equal schedulers serialize to identical bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundScheduler {
    n_threads: usize,
    /// Intervals per round.
    ipr: u64,
    /// Grace intervals past a round's end before the fastest thread's watermark
    /// force-closes it (`None` = wait for every thread, the fault-free behavior).
    deadline_intervals: Option<u64>,
    /// Next round to close.
    next_round: u64,
    /// Per-thread watermark: 1 + highest interval id seen.
    watermark: Vec<u64>,
    /// Round id → buffered non-empty OALs of its interval range.
    buckets: BTreeMap<u64, Vec<Oal>>,
    /// Round id → distinct (thread, interval) OALs received (coverage numerator;
    /// empty interval contexts count — they are interval reports too).
    received: BTreeMap<u64, u64>,
    /// Every (thread, interval) pair ever accepted, for deduplication.
    seen: BTreeSet<(u32, u64)>,
    /// Non-empty OALs that arrived after their round closed.
    late: Vec<Oal>,
    /// Late arrivals, empty contexts included.
    late_count: u64,
    /// Network duplicates discarded.
    duplicates: u64,
    /// Stale-epoch OALs fenced.
    fenced: u64,
    /// Rounds closed by the deadline.
    deadline_rounds: u64,
    /// Per-thread quarantine start: `Some(q)` excludes the thread's intervals `>= q`
    /// from the coverage numerator, denominator and the complete-close watermark rule
    /// (the thread's node crashed past the flap threshold). Its data, if any still
    /// arrives, is folded into the TCM anyway — data is data.
    quarantine_from: Vec<Option<u64>>,
}

impl RoundScheduler {
    /// Scheduler for `n_threads` threads at `ipr` intervals per round.
    pub fn new(n_threads: usize, ipr: u64, deadline_intervals: Option<u64>) -> Self {
        assert!(n_threads > 0, "scheduler needs at least one thread");
        RoundScheduler {
            n_threads,
            ipr: ipr.max(1),
            deadline_intervals,
            next_round: 0,
            watermark: vec![0; n_threads],
            buckets: BTreeMap::new(),
            received: BTreeMap::new(),
            seen: BTreeSet::new(),
            late: Vec::new(),
            late_count: 0,
            duplicates: 0,
            fenced: 0,
            deadline_rounds: 0,
            quarantine_from: vec![None; n_threads],
        }
    }

    /// Install per-thread quarantine starts (see the `quarantine_from` field). The
    /// table must list every thread.
    pub fn set_quarantine(&mut self, quarantine_from: Vec<Option<u64>>) {
        assert_eq!(quarantine_from.len(), self.n_threads, "one entry per thread");
        self.quarantine_from = quarantine_from;
    }

    /// The quarantine table in force.
    pub fn quarantine_table(&self) -> Vec<Option<u64>> {
        self.quarantine_from.clone()
    }

    /// Feed one OAL, classifying it. Call [`RoundScheduler::ready_rounds`] afterwards
    /// (or after a batch) to collect any rounds this arrival completed.
    pub fn ingest(&mut self, oal: Oal) -> Ingest {
        self.ingest_epoch(oal, false)
    }

    /// Feed one OAL carrying an epoch verdict: `stale_epoch` marks a batch stamped
    /// with an epoch older than the master's current one. A stale batch duplicating
    /// an already-accepted (thread, interval) pair is **fenced** — after a restore,
    /// replayed state must not be double-folded by in-flight retransmissions of the
    /// previous regime. A stale batch carrying a *new* pair is still accepted: it is
    /// real data that was in flight when the master crashed, and fencing it would
    /// convert every restore into data loss.
    pub fn ingest_epoch(&mut self, oal: Oal, stale_epoch: bool) -> Ingest {
        if !self.seen.insert((oal.thread.0, oal.interval)) {
            if stale_epoch {
                self.fenced += 1;
                return Ingest::Fenced;
            }
            self.duplicates += 1;
            return Ingest::Duplicate;
        }
        let t = oal.thread.index();
        self.watermark[t] = self.watermark[t].max(oal.interval + 1);
        let round = oal.interval / self.ipr;
        if round < self.next_round {
            self.late_count += 1;
            if !oal.is_empty() {
                self.late.push(oal);
            }
            return Ingest::Late;
        }
        // A quarantined thread's post-expulsion intervals never count toward
        // coverage: they are outside both numerator and denominator.
        let quarantined = self.quarantine_from[t].is_some_and(|q| oal.interval >= q);
        if !quarantined {
            *self.received.entry(round).or_insert(0) += 1;
        }
        if !oal.is_empty() {
            self.buckets.entry(round).or_default().push(oal);
        }
        Ingest::Accepted
    }

    /// Close and return every round that is ready, in order: rounds all threads have
    /// passed, plus — with a deadline configured — rounds the fastest thread has
    /// outrun by the grace distance. A quarantined thread only needs to have reported
    /// up to its expulsion point: a permanently dead flapper cannot wedge the
    /// complete-close rule.
    pub fn ready_rounds(&mut self) -> Vec<ClosedRound> {
        let max_wm = self.watermark.iter().copied().max().unwrap_or(0);
        let mut out = Vec::new();
        loop {
            // Never close past the observed horizon: a round nothing has reached yet
            // is not "complete", even when every thread is quarantined below it and
            // so owes it nothing (otherwise a fully-quarantined scheduler would spin
            // closing empty future rounds forever).
            if self.next_round * self.ipr >= max_wm {
                break;
            }
            let round_end = (self.next_round + 1) * self.ipr;
            let complete = (0..self.n_threads).all(|t| {
                let required = match self.quarantine_from[t] {
                    Some(q) => round_end.min(q),
                    None => round_end,
                };
                self.watermark[t] >= required
            });
            let expired = self
                .deadline_intervals
                .map(|grace| max_wm >= round_end + grace)
                .unwrap_or(false);
            if !complete && !expired {
                break;
            }
            out.push(self.close_next(!complete));
        }
        out
    }

    /// Close every remaining round in order (run finished; no more OALs will come).
    pub fn flush(&mut self) -> Vec<ClosedRound> {
        let last = self
            .buckets
            .keys()
            .last()
            .copied()
            .max(self.received.keys().last().copied());
        let mut out = Vec::new();
        if let Some(last) = last {
            while self.next_round <= last {
                out.push(self.close_next(false));
            }
        }
        out
    }

    fn close_next(&mut self, deadline_hit: bool) -> ClosedRound {
        let round = self.next_round;
        self.next_round += 1;
        if deadline_hit {
            self.deadline_rounds += 1;
        }
        let round_start = round * self.ipr;
        let round_end = round_start + self.ipr;
        // Denominator: each live thread owes `ipr` intervals; a quarantined thread
        // owes only the prefix before its expulsion point.
        let expected: u64 = (0..self.n_threads)
            .map(|t| match self.quarantine_from[t] {
                Some(q) => round_end.min(q.max(round_start)) - round_start,
                None => self.ipr,
            })
            .sum();
        let received = self.received.remove(&round).unwrap_or(0);
        let coverage = if expected == 0 {
            1.0 // every expected reporter is quarantined: nothing owed, nothing missing
        } else {
            received as f64 / expected as f64
        };
        ClosedRound {
            round,
            oals: self.buckets.remove(&round).unwrap_or_default(),
            coverage,
            deadline_hit,
        }
    }

    /// Take the buffered late (non-empty) OALs for the end-of-run TCM fold.
    pub fn take_late(&mut self) -> Vec<Oal> {
        std::mem::take(&mut self.late)
    }

    /// OALs that arrived after their round closed (including empty contexts).
    pub fn late_count(&self) -> u64 {
        self.late_count
    }

    /// Duplicated OALs discarded.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Stale-epoch OALs fenced after a restore.
    pub fn fenced_count(&self) -> u64 {
        self.fenced
    }

    /// Rounds closed by the deadline rather than by complete watermarks.
    pub fn deadline_rounds(&self) -> u64 {
        self.deadline_rounds
    }

    /// The next round awaiting closure.
    pub fn next_round(&self) -> u64 {
        self.next_round
    }

    /// Per-thread interval watermarks (1 + highest interval seen) — the
    /// straggler detector's lag signal.
    pub fn watermarks(&self) -> &[u64] {
        &self.watermark
    }
}

/// The coordinator's round-by-round record: every counter, history and decision
/// list that describes the rounds closed so far and must therefore survive a
/// master crash together with them. The daemon holds one; a
/// [`ProfilerCheckpoint`] carries a clone; a restore reinstates it (or starts a
/// new one), so a replayed round extends it exactly as the live round did and
/// nothing is double-counted. This is the one place a recoverable field is listed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MasterLedger {
    /// Rounds closed so far.
    pub rounds: u64,
    /// OALs ingested (non-duplicate) so far.
    pub oals: u64,
    /// Σ per-round distinct objects organized.
    pub objects_organized: u64,
    /// Per-round coverage history.
    pub round_coverage: Vec<f64>,
    /// Per-round profiling-cost history (the budget loop's input): profiling
    /// cost / charged compute since the previous close.
    pub round_cost_fraction: Vec<f64>,
    /// Applied rate changes so far.
    pub rate_changes: Vec<AppliedRateChange>,
    /// Coverage-skipped rounds so far.
    pub skipped: Vec<SkippedRateChange>,
    /// Migrations posted by the planning epochs so far.
    pub planned_migrations: Vec<PlannedMigration>,
    /// Round each thread last received a move directive in (the cooldown state:
    /// a thread inside its cooldown window is pinned).
    pub last_moved_round: Vec<Option<u64>>,
    /// Placement-engine counters accumulated so far.
    pub placement: PlacementTelemetry,
    /// Convergence timeline rows accumulated so far (change-point encoded).
    pub timeline: Vec<RoundTimeline>,
}

impl MasterLedger {
    /// The ledger of a coordinator of `n_threads` threads that has closed no
    /// round yet (`Default` alone lacks the per-thread cooldown slots).
    pub fn new(n_threads: usize) -> Self {
        MasterLedger {
            last_moved_round: vec![None; n_threads],
            ..MasterLedger::default()
        }
    }
}

/// Serializable snapshot of the coordinator's complete profiling state, taken every
/// `ProfilerConfig::checkpoint_every_rounds` closed rounds. It holds clones of the
/// live state values, whose containers are ordered, so equal coordinator states
/// serialize to identical JSON and the serialize→deserialize round trip is the
/// identity (property-tested).
///
/// Live telemetry counters (`checkpoints_taken`, `restores`, `replayed_oals`,
/// `fenced_oals`, [`ReduceTelemetry`]) are deliberately **not** part of the
/// snapshot: they describe what actually happened during the run, and rolling
/// them back on restore would falsify the run report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfilerCheckpoint {
    /// Master epoch at snapshot time.
    pub epoch: u64,
    /// The reducer's cumulative map and top-k head over the ledger's rounds.
    pub reducer: ReducerState,
    /// Round assembly (watermarks, open buckets, dedup set, late buffer).
    pub scheduler: RoundScheduler,
    /// The adaptive controller (per-class baselines, converged set, drift
    /// bookkeeping and ladder position), if adaptive control is on.
    pub controller: Option<AdaptiveController>,
    /// Per-class sampling-rate table, sorted by class id.
    pub rates: Vec<(ClassId, ClassGapState)>,
    /// The round-by-round record, restored with the rounds it describes so
    /// replayed rounds and planning epochs don't double-count.
    pub ledger: MasterLedger,
    /// Length of the daemon's accepted-OAL log at snapshot time: a restore
    /// truncates the log to it and replays the rest.
    pub oal_log_len: usize,
}

pub(crate) struct MasterDaemon {
    handle: std::thread::JoinHandle<Result<MasterOutput, ()>>,
}

impl MasterDaemon {
    pub(crate) fn spawn(
        shared: Arc<ClusterShared>,
        mailbox: Mailbox<EpochOal>,
    ) -> Result<Self, RuntimeError> {
        let handle = std::thread::Builder::new()
            .name("jessy-master".into())
            .spawn(move || {
                // The daemon is executor task `n_threads`. `catch_unwind` keeps a
                // panicking master from wedging the task set: its task is retired
                // and the executor poisoned so worker carriers abort
                // deterministically instead of parking forever.
                let exec = Arc::clone(&shared.exec);
                let master_task = shared.master_task();
                let out = catch_unwind(AssertUnwindSafe(|| run_daemon(shared, mailbox)));
                exec.finish(master_task);
                match out {
                    Ok(out) => Ok(out),
                    Err(_) => {
                        exec.poison();
                        Err(())
                    }
                }
            })
            .map_err(|e| RuntimeError::SpawnFailed(format!("master daemon: {e}")))?;
        Ok(MasterDaemon { handle })
    }

    pub(crate) fn join(self) -> Result<MasterOutput, RuntimeError> {
        match self.handle.join() {
            Ok(Ok(out)) => Ok(out),
            _ => Err(RuntimeError::MasterPanicked),
        }
    }
}

struct Daemon {
    shared: Arc<ClusterShared>,
    config: ProfilerConfig,
    /// The live reduce step (flat or tree, dense or sketch, with or without the
    /// top-k head).
    reducer: Reducer,
    /// Tree-reduction counters, reported as [`MasterOutput::reduce`] (tree mode only).
    reduce: ReduceTelemetry,
    controller: Option<AdaptiveController>,
    scheduler: RoundScheduler,
    /// Everything recoverable that the closed rounds produced.
    ledger: MasterLedger,
    build_ns: u64,
    /// (Σ thread clocks, profiling wire bytes, OAL entries) at the previous
    /// round close — the cost fraction is the delta between closes. All three
    /// are virtual-time/virtual-count reads taken while the master holds the
    /// cooperative token, so the fraction is deterministic.
    cost_base: (u64, u64, u64),
    // ---------------------------------------------------------- gray failure
    /// The crash-quarantine table in force at startup: what a straggler's
    /// threads revert to when the node recovers.
    straggler_base: Vec<Option<u64>>,
    /// Per-node progress-deficit EWMA (α = 0.3), in intervals behind the
    /// fastest-progressing node per round close.
    lag_ewma: Vec<f64>,
    /// Per-node minimum interval watermark at the previous round close, the
    /// baseline for the next progress-deficit measurement.
    prev_node_min: Vec<u64>,
    /// Per-node demotion flag (node currently prorated out of coverage).
    straggler_demoted: Vec<bool>,
    /// Demotion events performed (`MasterOutput::stragglers`).
    stragglers: u64,
    /// Per-object accessor statistics for home repair (Section V's home effect):
    /// maintained only when rebalancing with `migrate_homes` on.
    homeaware: Option<HomeAwareAnalyzer>,
    /// Classes whose convergence was already journaled (an event fires once per
    /// class, even when replay re-closes the round that froze it).
    announced_converged: HashSet<ClassId>,
    // ---------------------------------------------------------- crash-stop recovery
    /// Current master epoch (bumped and broadcast on every restore).
    epoch: u64,
    /// Latest snapshot, if checkpointing is on and one was taken.
    latest_checkpoint: Option<ProfilerCheckpoint>,
    /// Accepted OALs in arrival order: the whole run under `record_oals`, else
    /// those since the latest checkpoint. Past the checkpoint's `oal_log_len` it
    /// is the durable WAL a restore replays.
    oal_log: Vec<Oal>,
    /// Master crash windows, sorted by `until_interval`; `next_crash` indexes the
    /// first window whose restart has not fired yet.
    master_crashes: Vec<MasterCrashWindow>,
    next_crash: usize,
    /// One past the highest OAL interval ingested — tells `finish` whether a pending
    /// crash window actually intersected the run.
    max_interval_seen: u64,
    checkpoints_taken: u64,
    restores: u64,
    replayed_oals: u64,
    quarantined_nodes: u64,
}

impl Daemon {
    fn ingest(&mut self, msg: EpochOal) {
        let EpochOal { epoch, oal } = msg;
        // Master restart: the first OAL at/after the current crash window's end finds
        // the master rebooting — restore the latest checkpoint and replay. OALs in
        // flight while the master is down are *deferred, not dropped*: the transport
        // (sender retransmission in a real cluster, the mailbox here) holds them
        // until the restart drains the backlog, so crash loss is confined to the
        // volatile state the snapshot + replay reconstruct. Message-level drop
        // faults compose independently and degrade coverage as in PR 1.
        while self.next_crash < self.master_crashes.len()
            && oal.interval >= self.master_crashes[self.next_crash].until_interval
        {
            self.next_crash += 1;
            self.restore();
        }
        self.max_interval_seen = self.max_interval_seen.max(oal.interval + 1);
        let stale = epoch < self.epoch;
        // Without `record_oals` the log is the WAL of a master that can crash;
        // without crash windows in the fault plan nothing would ever read it.
        let keep_log = self.config.record_oals || !self.master_crashes.is_empty();
        if keep_log {
            self.oal_log.push(oal.clone());
        }
        match self.scheduler.ingest_epoch(oal, stale) {
            Ingest::Duplicate | Ingest::Fenced => {
                // Drop silently; a lossy network retransmitting is not new data.
                if keep_log {
                    self.oal_log.pop();
                }
                return;
            }
            Ingest::Accepted | Ingest::Late => self.ledger.oals += 1,
        }
        for closed in self.scheduler.ready_rounds() {
            self.close_round(closed);
        }
    }

    /// Snapshot everything a restarted master needs. Without `record_oals` the
    /// log is drained: OALs folded into the snapshot no longer need replaying.
    fn take_checkpoint(&mut self) {
        self.checkpoints_taken += 1;
        let gaps = self.shared.prof.gaps();
        let mut rates: Vec<(ClassId, ClassGapState)> =
            gaps.classes().iter().map(|c| (*c, gaps.state(*c))).collect();
        rates.sort_unstable_by_key(|(c, _)| *c);
        if !self.config.record_oals {
            self.oal_log.clear();
        }
        self.latest_checkpoint = Some(ProfilerCheckpoint {
            epoch: self.epoch,
            reducer: self.reducer.state().clone(),
            scheduler: self.scheduler.clone(),
            controller: self.controller.clone(),
            rates,
            ledger: self.ledger.clone(),
            oal_log_len: self.oal_log.len(),
        });
        self.shared.emit_event(
            &self.shared.master_clock(),
            EventKind::CheckpointTaken {
                round: self.ledger.rounds,
                epoch: self.epoch,
            },
        );
    }

    /// Master restart: reinstate the latest checkpoint (or restart cold from round
    /// zero if none was ever taken), bump and broadcast the epoch with the rate
    /// table, then deterministically replay the logged post-checkpoint OALs.
    /// Because the log's tail holds exactly the accepted-since-checkpoint stream,
    /// checkpoint + replay is an *identity transform* on accepted state: when no
    /// OALs were dropped by message faults, the recovered TCM and top-k head are
    /// bit-identical to the uninterrupted run's.
    fn restore(&mut self) {
        self.restores += 1;
        let logged = self.latest_checkpoint.as_ref().map_or(0, |cp| cp.oal_log_len);
        let replay = self.oal_log.split_off(logged);

        match self.latest_checkpoint.clone() {
            Some(cp) => {
                self.reducer.restore(cp.reducer);
                self.scheduler = cp.scheduler;
                self.controller = cp.controller;
                // Re-impose the checkpointed rate table (the restored master
                // re-broadcasts the rates it knew); replay re-derives later steps.
                let gaps = self.shared.prof.gaps();
                for (class, st) in &cp.rates {
                    gaps.set_rate(*class, st.rate);
                }
                self.ledger = cp.ledger;
            }
            None => {
                // Cold restart: no snapshot, so the replay spans the full run.
                // Worker rate tables are left untouched — without a snapshot the
                // restarted master has no record to re-broadcast; the controller
                // re-baselines against the rates currently in force.
                self.reducer =
                    Reducer::new(&self.config, self.shared.n_threads, self.shared.n_nodes);
                let quarantine = self.scheduler.quarantine_table();
                self.scheduler = fresh_scheduler(&self.config, self.shared.n_threads);
                self.scheduler.set_quarantine(quarantine);
                self.controller = AdaptiveController::new(&self.config);
                self.ledger = MasterLedger::new(self.shared.n_threads);
            }
        }
        if let Some(ha) = &mut self.homeaware {
            // Accessor statistics are not checkpointed: repair evidence restarts
            // from what the replayed rounds re-accumulate.
            ha.clear();
        }
        // The summary-only switch lives in worker-visible profiler state: re-sync
        // it to the restored ladder position (replay re-derives later rungs).
        if self.config.overhead_budget.is_some() {
            let on = self.controller.as_ref().is_some_and(|c| c.summary_only());
            self.shared.prof.set_summary_only(on);
        }
        // Straggler demotions are volatile observations of the dead regime: drop
        // any overlay back to the crash-quarantine base and re-observe.
        if self.config.straggler_lag_intervals.is_some() {
            self.scheduler.set_quarantine(self.straggler_base.clone());
            self.lag_ewma = vec![0.0; self.shared.n_nodes];
            self.prev_node_min = vec![0; self.shared.n_nodes];
            self.straggler_demoted = vec![false; self.shared.n_nodes];
        }

        // New regime: bump the epoch, publish it to the workers, and account the
        // epoch + rate-table broadcast that re-registration answers carry.
        self.epoch += 1;
        self.shared.master_epoch.store(self.epoch, Ordering::Release);
        let n_rates = self.shared.prof.gaps().classes().len();
        for n in 0..self.shared.n_nodes {
            self.shared.gos.fabric().account_async(
                NodeId::MASTER,
                NodeId(n as u16),
                MsgClass::RateChange,
                24 + 12 * n_rates,
            );
        }

        self.shared.emit_event(
            &self.shared.master_clock(),
            EventKind::MasterRestored {
                epoch: self.epoch,
                replayed: replay.len() as u64,
            },
        );
        for oal in replay {
            self.replayed_oals += 1;
            self.ingest(EpochOal { epoch: self.epoch, oal });
        }
    }

    /// The one place OALs reach the reducer: reduce one round's OALs (a scheduler
    /// round, or the late fold at the end of the run) and pay for what the tree
    /// moved.
    fn reduce_round(&mut self, round: u64, oals: &[Oal]) -> ReducedRound {
        let shared = &self.shared;
        let reduced = self.reducer.reduce(oals, |t| shared.node_of(t).0 as usize);
        if let Some(stats) = &reduced.tree {
            self.charge_tree_round(round, stats);
        }
        reduced
    }

    /// Account one tree-reduced round: fold its counters into `self.reduce`,
    /// charge every real fabric hop as `MsgClass::TcmPartial` traffic and journal it.
    fn charge_tree_round(&mut self, round: u64, stats: &TreeRoundStats) {
        self.reduce.tree_rounds += 1;
        self.reduce.shuffle_records += stats.shuffle_records;
        self.reduce.shuffle_bytes += stats.shuffle_bytes;
        self.reduce.partial_cells += stats.partial_cells;
        self.reduce.partial_bytes += stats.partial_bytes;
        self.reduce.master_partials += stats.master_partials;
        let clock = self.shared.master_clock();
        for e in &stats.edges {
            // Node 0 hosts the master daemon: its hops are local hand-offs.
            if e.from == e.to {
                continue;
            }
            self.shared.gos.fabric().account_async(
                NodeId(e.from),
                NodeId(e.to),
                MsgClass::TcmPartial,
                e.bytes as usize,
            );
            self.shared.emit_event(
                &clock,
                EventKind::TcmPartialShipped {
                    round,
                    from: e.from,
                    to: e.to,
                    cells: e.cells,
                    bytes: e.bytes,
                },
            );
        }
    }

    /// The profiling cost of the window since the previous round close, as a
    /// fraction of the application compute charged in that window. Cost =
    /// profiling wire bytes (OAL ship, rate broadcasts, TCM partials) at the
    /// fabric's per-byte rate, plus OAL log appends at the GOS cost model's
    /// append rate. Every input is a virtual counter read while the master holds
    /// the cooperative token, so the fraction is deterministic and free of
    /// host-time noise. The worker clocks read here are cross-task reads: each
    /// stands where its (parked) thread's next visible action begins, private
    /// actions before it included — see [`MasterOutput::round_cost_fraction`].
    fn profiling_cost_fraction(&mut self) -> f64 {
        let compute: u64 = (0..self.shared.n_threads)
            .map(|t| self.shared.board.read(ThreadId(t as u32)))
            .sum();
        let prof_bytes = self.shared.gos.net_stats().oal_bytes();
        let entries = self.shared.prof.stats().snapshot().oal_entries;
        let (c0, b0, e0) = self.cost_base;
        self.cost_base = (compute, prof_bytes, entries);
        let d_compute = compute.saturating_sub(c0);
        if d_compute == 0 {
            return 0.0;
        }
        let ns_per_byte = self.shared.gos.fabric().latency_model().ns_per_byte;
        let cost_ns = prof_bytes.saturating_sub(b0) as f64 * ns_per_byte
            + entries.saturating_sub(e0) as f64 * self.shared.gos.costs().log_append_ns as f64;
        cost_ns / d_compute as f64
    }

    /// Gray-failure detection (`ProfilerConfig::straggler_lag_intervals`): at
    /// every round close, measure how many intervals each node *progressed*
    /// since the previous close and track its deficit behind the
    /// fastest-progressing node as an EWMA. The deficit detects *slowness*
    /// (a gray node advances fewer intervals per unit of cluster progress),
    /// not backlog, so it decays as soon as the node runs at full speed again
    /// even while it still owes old intervals. A node whose EWMA crosses the
    /// threshold is *demoted* — its threads' unreported intervals are prorated
    /// out of round coverage via the scheduler's quarantine overlay, so a slow
    /// (not dead) node degrades coverage instead of wedging rounds or tripping
    /// low-coverage skips. When the EWMA recovers below half the threshold the
    /// node is restored to the crash-quarantine base. Late data from a demoted
    /// node still folds into the TCM — demotion is a coverage-accounting
    /// decision, never data loss.
    fn update_stragglers(&mut self, round: u64) {
        let Some(threshold) = self.config.straggler_lag_intervals else {
            return;
        };
        let wm = self.scheduler.watermarks().to_vec();
        let placement = self.shared.placement.read().clone();
        let mut node_min: Vec<Option<u64>> = vec![None; self.shared.n_nodes];
        for (t, node) in placement.iter().enumerate() {
            let slot = &mut node_min[node.0 as usize];
            *slot = Some(slot.map_or(wm[t], |m| m.min(wm[t])));
        }
        let deltas: Vec<Option<u64>> = (0..self.shared.n_nodes)
            .map(|n| node_min[n].map(|m| m.saturating_sub(self.prev_node_min[n])))
            .collect();
        let max_delta = deltas.iter().flatten().copied().max().unwrap_or(0);
        for (n, m) in node_min.iter().enumerate() {
            if let Some(m) = m {
                self.prev_node_min[n] = *m;
            }
        }
        if max_delta == 0 {
            // Nothing progressed since the last close (e.g. a burst of closes
            // from one ingest): no signal, keep the EWMAs as they are.
            return;
        }
        let mut table = self.scheduler.quarantine_table();
        let mut dirty = false;
        for (n, delta) in deltas.iter().enumerate() {
            let Some(delta) = *delta else {
                continue; // hosts no threads; nothing to observe
            };
            let lag = (max_delta - delta) as f64;
            self.lag_ewma[n] = 0.3 * lag + 0.7 * self.lag_ewma[n];
            if !self.straggler_demoted[n] && self.lag_ewma[n] > threshold {
                self.straggler_demoted[n] = true;
                self.stragglers += 1;
                for (t, node) in placement.iter().enumerate() {
                    if node.0 as usize == n {
                        // The thread owes nothing beyond what it has already
                        // reported; a tighter crash expulsion stays in force.
                        table[t] = Some(table[t].map_or(wm[t], |q| q.min(wm[t])));
                    }
                }
                dirty = true;
                self.shared.emit_event(
                    &self.shared.master_clock(),
                    EventKind::StragglerDemoted {
                        node: n as u16,
                        round,
                        lag_ewma: self.lag_ewma[n],
                    },
                );
            } else if self.straggler_demoted[n] && self.lag_ewma[n] < threshold / 2.0 {
                self.straggler_demoted[n] = false;
                for (t, node) in placement.iter().enumerate() {
                    if node.0 as usize == n {
                        table[t] = self.straggler_base[t];
                    }
                }
                dirty = true;
                self.shared.emit_event(
                    &self.shared.master_clock(),
                    EventKind::StragglerRestored {
                        node: n as u16,
                        round,
                    },
                );
            }
        }
        if dirty {
            self.scheduler.set_quarantine(table);
        }
    }

    /// One planning epoch: pick the planning view the reducer already maintains,
    /// refine the live placement under the cost/budget/cooldown filter (with
    /// `migrate_homes`, landing groups on the nodes that home their data), post
    /// epoch-stamped directives and fold the outcome into the telemetry; then,
    /// with `migrate_homes`, repair homes.
    ///
    /// When the reducer keeps a head-and-sketch view ([`Reducer::planning_view`])
    /// the plan is drawn from it, so planning stays O(k + sketch) and never
    /// expands the O(N²) dense map [`Reducer::cumulative`] would materialize.
    /// That is the production-scale path (N=1024 in the bench).
    fn plan_placement_epoch(&mut self, cfg: &RebalanceConfig, round: u64) {
        let view: Box<dyn CorrelationView + '_> = match self.reducer.planning_view() {
            Some(view) => Box::new(view),
            None => Box::new(self.reducer.cumulative()),
        };
        let (moved, telemetry) = (&mut self.ledger.last_moved_round, &mut self.ledger.placement);
        let homes = self.homeaware.as_ref();
        let issued = plan_epoch(&self.shared, &*view, cfg, round, moved, telemetry, homes);
        let intra = *telemetry.intra_trajectory.last().expect("plan_epoch records every epoch");
        self.shared.emit_event(
            &self.shared.master_clock(),
            EventKind::PlacementPlanned {
                round,
                epoch: self.epoch,
                directives: issued.len() as u64,
                intra_before: intra.before,
                intra_after: intra.after,
            },
        );
        // Home repair (the paper's Section V "home effect"): collocation only
        // pays once shared state is *homed* where the threads run. The plan lands
        // groups on their data and movers carry no homes; this pass repairs the
        // rest, pulling each object whose dominant accessor node strictly beats
        // its current home onto that node. Nodes a mover is leaving this epoch
        // are skipped — their evidence describes a placement that is about to
        // change.
        if let Some(ha) = &mut self.homeaware {
            let placement = self.shared.placement.read().clone();
            let report = ha.build(&self.shared.gos, &placement);
            let leaving: std::collections::HashSet<NodeId> =
                issued.iter().map(|m| m.from).collect();
            let (repaired, repaired_bytes) = self.shared.gos.relocate_homes(
                report
                    .recommendations
                    .iter()
                    .filter(|rec| !leaving.contains(&rec.to))
                    .map(|rec| (rec.obj, rec.to)),
                &self.shared.master_clock(),
            );
            if repaired > 0 || !issued.is_empty() {
                // The world changed: dominance evidence must be re-earned
                // against the post-repair placement and homes.
                ha.clear();
            }
            self.ledger.placement.homes_repaired += repaired as u64;
            self.ledger.placement.repaired_bytes += repaired_bytes as u64;
        }
        self.ledger.planned_migrations.extend(issued);
    }

    fn close_round(&mut self, closed: ClosedRound) {
        let t0 = Instant::now();
        if let Some(ha) = &mut self.homeaware {
            // Home-repair evidence rides on the same OAL stream the TCM reducer
            // consumes; the live placement maps each logging thread to a node.
            let placement = self.shared.placement.read().clone();
            for oal in &closed.oals {
                ha.ingest(oal, &placement);
            }
        }
        let summary = self.reduce_round(closed.round, &closed.oals);
        self.build_ns += t0.elapsed().as_nanos() as u64;
        self.ledger.rounds += 1;
        self.ledger.objects_organized += summary.objects as u64;
        self.ledger.round_coverage.push(closed.coverage);
        let cost_fraction = self.profiling_cost_fraction();
        self.ledger.round_cost_fraction.push(cost_fraction);
        self.shared.emit_event(
            &self.shared.master_clock(),
            EventKind::RoundClosed {
                round: closed.round,
                oals: closed.oals.len() as u64,
                coverage: closed.coverage,
                deadline_hit: closed.deadline_hit,
            },
        );

        // Relative distances of this round's applied changes, by class name —
        // feeds the timeline row built below.
        let mut changed_distance: BTreeMap<String, f64> = BTreeMap::new();
        if let Some(ctl) = &mut self.controller {
            let clock = self.shared.master_clock();
            let outcome = ctl.on_round(
                &summary.per_class,
                self.shared.prof.gaps(),
                closed.coverage,
                cost_fraction,
            );
            match outcome {
                RoundOutcome::Applied(changes) => {
                    for ch in changes {
                        let visited = broadcast_rate_change(&self.shared, ch.class, &clock);
                        let class_name = self.shared.gos.classes().info(ch.class).name;
                        let new_rate = ch.new_state.rate.label();
                        let drift = ch.cause == RateCause::Drift;
                        changed_distance.insert(class_name.clone(), ch.relative_distance);
                        if drift {
                            // The class is live again: let its eventual
                            // re-convergence journal a fresh ClassConverged, so
                            // the Drifted→Converged span is the lag.
                            self.announced_converged.remove(&ch.class);
                            self.shared.emit_event(
                                &self.shared.master_clock(),
                                EventKind::ClassDrifted {
                                    round: closed.round,
                                    class: class_name.clone(),
                                    relative_distance: ch.relative_distance,
                                    new_rate: new_rate.clone(),
                                },
                            );
                        }
                        self.shared.emit_event(
                            &self.shared.master_clock(),
                            EventKind::RateChanged {
                                round: closed.round,
                                class: class_name.clone(),
                                new_rate: new_rate.clone(),
                                relative_distance: ch.relative_distance,
                            },
                        );
                        self.ledger.rate_changes.push(AppliedRateChange {
                            // Rounds closed including this one (a restored
                            // ledger keeps counting where the snapshot stood).
                            round: self.ledger.rounds,
                            class_name,
                            new_rate,
                            relative_distance: ch.relative_distance,
                            resampled_objects: visited,
                            drift,
                        });
                    }
                }
                RoundOutcome::SkippedLowCoverage { coverage, .. } => {
                    self.shared.emit_event(
                        &self.shared.master_clock(),
                        EventKind::RoundSkipped {
                            round: closed.round,
                            coverage,
                            min_coverage: self.config.min_round_coverage,
                        },
                    );
                    self.ledger.skipped.push(SkippedRateChange {
                        round: closed.round,
                        coverage,
                    });
                }
                // Merged rounds defer rate decisions to the cadence boundary —
                // cheaper rounds, same baselines; nothing to journal per round.
                // Settling rounds are over budget but still inside the last
                // rung's transition window: the next clean measurement decides.
                RoundOutcome::MergedOut { .. } | RoundOutcome::Settling => {}
                RoundOutcome::Degraded(step) => {
                    match &step {
                        DegradeStep::CoarsenRate { class, .. } => {
                            // The controller already coarsened the gap table;
                            // the workers hear of it exactly as they would of an
                            // accuracy-driven rate change.
                            broadcast_rate_change(&self.shared, *class, &clock);
                        }
                        DegradeStep::SummaryOnly => self.shared.prof.set_summary_only(true),
                        DegradeStep::MergeRounds { .. } | DegradeStep::Exhausted => {}
                    }
                    self.shared.emit_event(
                        &self.shared.master_clock(),
                        EventKind::BudgetDegraded {
                            round: closed.round,
                            step: step.label(),
                            cost_fraction,
                        },
                    );
                }
            }
            // Journal each class the moment its rate freezes (once per class —
            // replay may re-close the round that froze it).
            for class in self.shared.prof.gaps().classes() {
                if ctl.is_converged(class) && self.announced_converged.insert(class) {
                    self.shared.emit_event(
                        &self.shared.master_clock(),
                        EventKind::ClassConverged {
                            round: closed.round,
                            class: self.shared.gos.classes().info(class).name,
                        },
                    );
                }
            }
        }

        // Timeline row: every registered class's rate (post-decision), in id order.
        let gaps = self.shared.prof.gaps();
        let classes: Vec<ClassRoundState> = gaps
            .classes()
            .into_iter()
            .map(|c| {
                let class_name = self.shared.gos.classes().info(c).name;
                ClassRoundState {
                    rate: gaps.state(c).rate.label(),
                    relative_distance: changed_distance.get(&class_name).copied().unwrap_or(0.0),
                    converged: self
                        .controller
                        .as_ref()
                        .is_some_and(|ctl| ctl.is_converged(c)),
                    class_name,
                }
            })
            .collect();
        // Change-point encoded: a round that looks like the previous row adds
        // nothing (a row stands for every round up to the next row).
        let unchanged = self.ledger.timeline.last().is_some_and(|prev| {
            prev.coverage == closed.coverage
                && prev.deadline_hit == closed.deadline_hit
                && prev.classes == classes
        });
        if !unchanged {
            self.ledger.timeline.push(RoundTimeline {
                round: closed.round,
                coverage: closed.coverage,
                deadline_hit: closed.deadline_hit,
                classes,
            });
        }

        self.update_stragglers(closed.round);

        // Dynamic balancing (Section V's policy, built on the profiles): a
        // planning epoch once `after_rounds` rounds have closed, then — with
        // `every_rounds` — one every `k` closes. `rounds` is restored with the
        // ledger, so a replayed close re-derives exactly the epochs it did live.
        if let Some(cfg) = self.shared.rebalance {
            let rounds = self.ledger.rounds;
            let due = match cfg.every_rounds {
                Some(every) => {
                    rounds >= cfg.after_rounds
                        && (rounds - cfg.after_rounds).is_multiple_of(every.max(1))
                }
                None => rounds == cfg.after_rounds.max(1),
            };
            if due {
                self.plan_placement_epoch(&cfg, closed.round);
            }
        }

        // Periodic snapshot for crash recovery.
        if let Some(every) = self.config.checkpoint_every_rounds {
            if every > 0 && self.ledger.rounds.is_multiple_of(every) {
                self.take_checkpoint();
            }
        }
    }

    /// Flush every buffered round in order, then fold late arrivals into the
    /// cumulative TCM (run finished; no more OALs will arrive). Late OALs improve the
    /// final map but never steer the controller — their rounds already closed.
    fn finish(&mut self) {
        // The run ended while the master was down: no post-window OAL ever arrived
        // to trigger the restart, so fire it now — the recovered output must come
        // from checkpoint + replay of the buffered backlog, not from the doomed
        // in-memory state. Windows entirely beyond the last OAL never happened as
        // far as the profiled run is concerned.
        while self.next_crash < self.master_crashes.len()
            && self.master_crashes[self.next_crash].from_interval < self.max_interval_seen
        {
            self.next_crash += 1;
            self.restore();
        }
        for closed in self.scheduler.flush() {
            self.close_round(closed);
        }
        let late = self.scheduler.take_late();
        if !late.is_empty() {
            let t0 = Instant::now();
            // The late fold is one more round to the reducer: in tree mode it
            // rides the same pipeline (and pays the same partial-TCM fabric
            // bytes) as a regular round.
            let summary = self.reduce_round(self.ledger.rounds, &late);
            self.build_ns += t0.elapsed().as_nanos() as u64;
            self.ledger.objects_organized += summary.objects as u64;
        }
    }
}

/// An empty round scheduler for the config, built at daemon startup and again
/// at a cold restart.
fn fresh_scheduler(config: &ProfilerConfig, n_threads: usize) -> RoundScheduler {
    RoundScheduler::new(
        n_threads,
        (config.intervals_per_round as u64).max(1),
        config.round_deadline_intervals,
    )
}

/// Tell every worker node a class's rate changed — a 16-byte accounted notice
/// each — and run the resampling walk; returns the objects it visited.
fn broadcast_rate_change(
    shared: &ClusterShared,
    class: ClassId,
    clock: &ClockHandle,
) -> usize {
    for n in 0..shared.n_nodes {
        shared.gos.fabric().account_async(
            NodeId::MASTER,
            NodeId(n as u16),
            MsgClass::RateChange,
            16,
        );
    }
    apply_rate_change(&shared.gos, shared.prof.gaps(), class, clock)
}

fn run_daemon(shared: Arc<ClusterShared>, mailbox: Mailbox<EpochOal>) -> MasterOutput {
    // Join the cooperative task set (task `n_threads`); dispatch begins once the
    // worker tasks have registered too.
    let master_task = shared.master_task();
    let master_clock = shared.master_clock();
    shared.exec.register_current(master_task);
    let config = *shared.prof.config();
    let mut scheduler = fresh_scheduler(&config, shared.n_threads);

    // Crash-stop plan pieces, derived purely from the fault plan and the *initial*
    // placement (quarantine is a deterministic agreement, not extra protocol).
    let plan = shared.gos.fabric().injector().map(|inj| inj.plan().clone());
    let mut master_crashes: Vec<MasterCrashWindow> = plan
        .as_ref()
        .map(|p| p.master_crashes.clone())
        .unwrap_or_default();
    master_crashes.sort_unstable_by_key(|w| (w.until_interval, w.from_interval));
    let mut quarantined_nodes = 0u64;
    if let (Some(plan), Some(threshold)) = (plan.as_ref(), config.quarantine_after_crashes) {
        let placement = shared.placement.read().clone();
        let mut expelled: HashSet<u16> = HashSet::new();
        let table: Vec<Option<u64>> = placement
            .iter()
            .map(|node| {
                let q = plan.quarantine_from(*node, threshold);
                if q.is_some() {
                    expelled.insert(node.0);
                }
                q
            })
            .collect();
        quarantined_nodes = expelled.len() as u64;
        scheduler.set_quarantine(table);
        let mut expelled: Vec<u16> = expelled.into_iter().collect();
        expelled.sort_unstable();
        for n in expelled {
            shared.emit_event(
                &shared.master_clock(),
                EventKind::NodeQuarantined {
                    node: n,
                    crashes: plan.crash_count(NodeId(n)),
                },
            );
        }
    }

    let mut daemon = Daemon {
        config,
        reducer: Reducer::new(&config, shared.n_threads, shared.n_nodes),
        reduce: ReduceTelemetry::default(),
        controller: AdaptiveController::new(&config),
        straggler_base: scheduler.quarantine_table(),
        scheduler,
        ledger: MasterLedger::new(shared.n_threads),
        build_ns: 0,
        cost_base: (0, 0, 0),
        lag_ewma: vec![0.0; shared.n_nodes],
        prev_node_min: vec![0; shared.n_nodes],
        straggler_demoted: vec![false; shared.n_nodes],
        stragglers: 0,
        homeaware: shared
            .rebalance
            .filter(|c| c.migrate_homes)
            .map(|_| HomeAwareAnalyzer::new(shared.n_nodes, shared.n_threads)),
        announced_converged: HashSet::new(),
        epoch: 0,
        latest_checkpoint: None,
        oal_log: Vec::new(),
        master_crashes,
        next_crash: 0,
        max_interval_seen: 0,
        checkpoints_taken: 0,
        restores: 0,
        replayed_oals: 0,
        quarantined_nodes,
        shared: Arc::clone(&shared),
    };

    loop {
        let batch = mailbox.drain();
        if batch.is_empty() {
            if shared.done.load(Ordering::Acquire) {
                break;
            }
            // Hand the token to the application tasks and park until a worker
            // posts an OAL (or the controlling thread signals completion). An
            // external block: an empty mailbox is idleness, never deadlock.
            shared.exec.block_external(master_task, master_clock.now());
            continue;
        }
        for env in batch {
            daemon.ingest(env.body);
        }
    }
    for env in mailbox.drain() {
        daemon.ingest(env.body);
    }
    daemon.finish();

    let oal_log = if config.record_oals { daemon.oal_log } else { Vec::new() };
    let tcm = daemon.reducer.cumulative();
    let controller = daemon.controller.as_ref();
    let ledger = daemon.ledger;
    let budget_over_rounds = config.overhead_budget.map_or(0, |budget| {
        ledger.round_cost_fraction.iter().filter(|&&f| f > budget).count() as u64
    });
    MasterOutput {
        tcm,
        oals_ingested: ledger.oals,
        rounds: ledger.rounds,
        objects_organized: ledger.objects_organized,
        tcm_build_real_ns: daemon.build_ns,
        rate_changes: ledger.rate_changes,
        skipped_rate_changes: ledger.skipped,
        round_coverage: ledger.round_coverage,
        deadline_rounds: daemon.scheduler.deadline_rounds(),
        late_oals: daemon.scheduler.late_count(),
        duplicate_oals: daemon.scheduler.duplicate_count(),
        planned_migrations: ledger.planned_migrations,
        placement: {
            let mut p = ledger.placement;
            p.fenced_directives = shared.fenced_directives.load(Ordering::Relaxed);
            let log = shared.migration_log.lock();
            p.applied_migrations = log.len() as u64;
            p.migrated_bytes = log.iter().map(|m| m.total_bytes() as u64).sum();
            p
        },
        oal_log,
        checkpoints_taken: daemon.checkpoints_taken,
        restores: daemon.restores,
        replayed_oals: daemon.replayed_oals,
        fenced_oals: daemon.scheduler.fenced_count(),
        quarantined_nodes: daemon.quarantined_nodes,
        converged_classes: controller.map_or(0, |c| c.converged_count() as u64),
        final_epoch: daemon.epoch,
        timeline: ledger.timeline,
        top_pairs: daemon
            .reducer
            .top_pairs()
            .into_iter()
            .map(|(i, j, v)| (i.0, j.0, v))
            .collect(),
        reduce: daemon.reduce,
        stragglers: daemon.stragglers,
        budget_over_rounds,
        budget_degrades: controller.map_or(0, |c| c.degrades()),
        round_cost_fraction: ledger.round_cost_fraction,
        drift_reactivations: controller.map_or(0, |c| c.reactivations()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jessy_net::ThreadId;

    fn oal(thread: u32, interval: u64) -> Oal {
        Oal {
            thread: ThreadId(thread),
            interval,
            entries: Vec::new(),
        }
    }

    #[test]
    fn rounds_close_in_order_once_all_threads_pass() {
        let mut s = RoundScheduler::new(2, 2, None);
        // Thread 0 races ahead through round 0 and 1; nothing closes until thread 1
        // catches up.
        for i in 0..4 {
            assert_eq!(s.ingest(oal(0, i)), Ingest::Accepted);
        }
        assert!(s.ready_rounds().is_empty());
        s.ingest(oal(1, 0));
        s.ingest(oal(1, 1));
        let closed = s.ready_rounds();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].round, 0);
        assert_eq!(closed[0].coverage, 1.0);
        assert!(!closed[0].deadline_hit);
    }

    #[test]
    fn duplicates_are_discarded_once() {
        let mut s = RoundScheduler::new(1, 1, None);
        assert_eq!(s.ingest(oal(0, 0)), Ingest::Accepted);
        assert_eq!(s.ingest(oal(0, 0)), Ingest::Duplicate);
        assert_eq!(s.duplicate_count(), 1);
        let closed = s.ready_rounds();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].coverage, 1.0, "duplicate must not double-count");
    }

    #[test]
    fn deadline_closes_round_with_a_stalled_thread() {
        // Thread 1 never reports: without a deadline the scheduler waits forever;
        // with grace 2 the fastest thread pulls rounds shut behind it.
        let mut s = RoundScheduler::new(2, 1, Some(2));
        for i in 0..5 {
            s.ingest(oal(0, i));
        }
        let closed = s.ready_rounds();
        // Watermark of thread 0 is 5: rounds 0..=2 have 5 >= end + 2.
        assert_eq!(closed.len(), 3);
        for (r, c) in closed.iter().enumerate() {
            assert_eq!(c.round, r as u64);
            assert!(c.deadline_hit);
            assert_eq!(c.coverage, 0.5, "only one of two threads reported");
        }
        assert_eq!(s.deadline_rounds(), 3);
    }

    #[test]
    fn late_arrivals_buffer_for_the_final_fold() {
        let mut s = RoundScheduler::new(2, 1, Some(0));
        s.ingest(oal(0, 0));
        s.ingest(oal(0, 1));
        // Grace 0: the fastest watermark (2) force-closes both touched rounds.
        assert_eq!(s.ready_rounds().len(), 2);
        // Thread 1's interval-0 OAL arrives after its round closed.
        let mut late = oal(1, 0);
        late.entries.push(jessy_core::OalEntry {
            obj: jessy_gos::ObjectId(7),
            class: jessy_gos::ClassId(0),
            bytes: 64,
        });
        assert_eq!(s.ingest(late), Ingest::Late);
        assert_eq!(s.late_count(), 1);
        let buffered = s.take_late();
        assert_eq!(buffered.len(), 1);
        assert_eq!(buffered[0].thread, ThreadId(1));
    }

    #[test]
    fn flush_closes_partial_rounds_with_their_coverage() {
        let mut s = RoundScheduler::new(2, 2, None);
        s.ingest(oal(0, 0));
        s.ingest(oal(1, 0));
        s.ingest(oal(0, 1)); // round 0 three of four; round 1 untouched
        s.ingest(oal(0, 2));
        assert!(s.ready_rounds().is_empty());
        let closed = s.flush();
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].coverage, 0.75);
        assert_eq!(closed[1].coverage, 0.25);
    }

    #[test]
    fn out_of_order_arrival_within_open_rounds_is_accepted() {
        let mut s = RoundScheduler::new(1, 4, None);
        for i in [3u64, 0, 2, 1] {
            assert_eq!(s.ingest(oal(0, i)), Ingest::Accepted);
        }
        let closed = s.ready_rounds();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].coverage, 1.0);
    }

    fn full_oal(thread: u32, interval: u64) -> Oal {
        let mut o = oal(thread, interval);
        o.entries.push(jessy_core::OalEntry {
            obj: jessy_gos::ObjectId(interval as u32 * 10 + thread),
            class: jessy_gos::ClassId(thread as u16),
            bytes: 64,
        });
        o
    }

    #[test]
    fn stale_epoch_duplicates_are_fenced_but_stale_new_pairs_are_accepted() {
        let mut s = RoundScheduler::new(2, 2, None);
        assert_eq!(s.ingest(oal(0, 0)), Ingest::Accepted);
        // Retransmission of an already-accepted pair under the old epoch: fenced,
        // and counted apart from ordinary duplicates.
        assert_eq!(s.ingest_epoch(oal(0, 0), true), Ingest::Fenced);
        assert_eq!(s.fenced_count(), 1);
        assert_eq!(s.duplicate_count(), 0);
        // A stale-epoch OAL for a *new* pair is in-flight data from before the
        // crash — discarding it would turn every restore into data loss.
        assert_eq!(s.ingest_epoch(oal(1, 0), true), Ingest::Accepted);
        // A fresh-epoch duplicate is still just a duplicate.
        assert_eq!(s.ingest_epoch(oal(1, 0), false), Ingest::Duplicate);
        assert_eq!(s.duplicate_count(), 1);
        assert_eq!(s.fenced_count(), 1);
    }

    #[test]
    fn quarantined_thread_leaves_coverage_denominator_and_close_rule() {
        // Two threads, 2 intervals per round. Thread 1 is quarantined from
        // interval 2 (start of round 1) onward.
        let mut s = RoundScheduler::new(2, 2, None);
        s.set_quarantine(vec![None, Some(2)]);
        for i in 0..4 {
            s.ingest(oal(0, i));
        }
        s.ingest(oal(1, 0));
        s.ingest(oal(1, 1));
        // Round 0 predates the expulsion: full denominator, full coverage. Round 1
        // closes without thread 1 (its required watermark caps at the quarantine
        // point) at coverage 2/2 — thread 1 owes nothing there.
        let closed = s.ready_rounds();
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].coverage, 1.0);
        assert_eq!(closed[1].coverage, 1.0, "expelled thread owes no intervals");
        assert!(!closed[1].deadline_hit, "close is complete, not a deadline");
        // Post-expulsion data from the flapper still folds into the TCM (it is
        // real sharing evidence) — it just cannot sway coverage.
        let tail = full_oal(1, 2);
        assert_eq!(s.ingest(tail), Ingest::Late);
    }

    #[test]
    fn quarantine_mid_round_prorates_the_denominator() {
        // ipr 4, thread 1 expelled from interval 2: round 0 expects 4 + 2 = 6.
        let mut s = RoundScheduler::new(2, 4, None);
        s.set_quarantine(vec![None, Some(2)]);
        for i in 0..4 {
            s.ingest(oal(0, i));
        }
        s.ingest(oal(1, 0)); // thread 1 reports 1 of its 2 owed intervals
        // The complete-close rule still waits for thread 1's owed interval 1 (its
        // required watermark is min(round_end, q) = 2, and it has only reached 1).
        assert!(s.ready_rounds().is_empty());
        let closed = s.flush();
        assert_eq!(closed.len(), 1);
        assert!((closed[0].coverage - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn fully_quarantined_round_reports_full_coverage() {
        let mut s = RoundScheduler::new(1, 2, None);
        s.set_quarantine(vec![Some(0)]);
        let closed = s.flush();
        assert!(closed.is_empty(), "nothing touched, nothing to close");
        s.ingest(full_oal(0, 1));
        let closed = s.flush();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].coverage, 1.0, "zero expected ⇒ vacuously covered");
    }

    #[test]
    fn scheduler_checkpoint_roundtrips_and_resumes_identically() {
        let mut s = RoundScheduler::new(3, 2, Some(1));
        s.set_quarantine(vec![None, None, Some(3)]);
        for i in 0..5 {
            s.ingest(full_oal(0, i));
        }
        s.ingest(full_oal(1, 0));
        s.ingest(full_oal(1, 0)); // duplicate
        s.ready_rounds();
        s.ingest(full_oal(1, 1)); // late (round 0 closed by deadline)

        let json = serde_json::to_string(&s).unwrap();
        let mut restored: RoundScheduler = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, s, "serialize ∘ deserialize is the identity");

        // Drive both schedulers through the same tail; every classification and
        // every closed round must match.
        let tail = [full_oal(1, 2), full_oal(2, 0), full_oal(1, 3), full_oal(2, 2)];
        for o in tail {
            assert_eq!(s.ingest(o.clone()), restored.ingest(o));
        }
        assert_eq!(s.ready_rounds(), restored.ready_rounds());
        assert_eq!(s.flush(), restored.flush());
        assert_eq!(s.take_late(), restored.take_late());
        assert_eq!(s, restored);
    }

    #[test]
    fn late_oals_are_folded_exactly_once() {
        // Satellite audit regression: an OAL must reach the TCM fold through
        // exactly one of {closed-round buckets, late buffer}, never both, even when
        // flush() runs after late arrivals and take_late() is drained twice.
        let mut s = RoundScheduler::new(2, 1, Some(0));
        s.ingest(full_oal(0, 0));
        s.ingest(full_oal(0, 1));
        let mut folded: Vec<Oal> = Vec::new();
        for r in s.ready_rounds() {
            folded.extend(r.oals);
        }
        let late = full_oal(1, 0);
        assert_eq!(s.ingest(late.clone()), Ingest::Late);
        assert_eq!(s.ingest(late), Ingest::Duplicate, "late re-send deduplicated");
        for r in s.flush() {
            folded.extend(r.oals); // flush must not resurrect the late OAL
        }
        folded.extend(s.take_late());
        folded.extend(s.take_late()); // second drain must be empty
        let mut keys: Vec<(u32, u64)> =
            folded.iter().map(|o| (o.thread.0, o.interval)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            folded.len(),
            "some (thread, interval) OAL folded more than once"
        );
        assert_eq!(folded.len(), 3);
    }
}
