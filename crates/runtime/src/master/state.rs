//! What a master restore reinstates: [`MasterState`] and its parts — the
//! [`RoundScheduler`], which groups the out-of-order, lossy, possibly duplicated
//! OAL stream into TCM rounds by interval number (see the [`crate::master`] docs
//! for the fault model), and the [`MasterLedger`] of the rounds closed so far.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use jessy_core::{AdaptiveController, GapTable, Oal, Tcm};

use super::boundary::{CostInputs, MasterSetup};
use super::AppliedRateChange;
use crate::dynamic::{PlacementTelemetry, PlannedMigration};

/// The coordinator's round-by-round record: every counter and decision list
/// that describes the rounds closed so far and must therefore survive a master
/// crash together with them, as part of [`MasterState`]. Per-round series
/// live in the journal (`RoundClosed`, `RoundSkipped`, `PlacementPlanned`);
/// the ledger keeps totals, plus the coverage history the report still
/// carries.
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
    /// Rounds whose profiling cost exceeded the overhead budget so far.
    pub budget_over_rounds: u64,
    /// Applied rate changes so far.
    pub rate_changes: Vec<AppliedRateChange>,
    /// Coverage-skipped rounds so far.
    pub skipped_rounds: u64,
    /// Migrations posted by the planning epochs so far.
    pub planned_migrations: Vec<PlannedMigration>,
    /// Round each thread last received a move directive in (the cooldown state:
    /// a thread inside its cooldown window is pinned).
    pub last_moved_round: Vec<Option<u64>>,
    /// Placement-engine counters accumulated so far.
    pub placement: PlacementTelemetry,
}

/// Everything a master restore reinstates, and the one list of it: a
/// checkpoint is a clone. Its containers are ordered, so equal states serialize
/// to identical JSON and the serialize→deserialize round trip is the identity
/// (property-tested).
///
/// What it leaves out is not rolled back by a restore: the run counters
/// (checkpoints, restores, replayed OALs, stragglers),
/// which describe what actually happened. The straggler detector's observations
/// and the home-aware statistics are volatile: a restore resets them, and the
/// replayed rounds re-accumulate them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MasterState {
    /// Round assembly (watermarks, open buckets, dedup set, late buffer).
    pub scheduler: RoundScheduler,
    /// The cumulative thread correlation map over the ledger's rounds.
    pub tcm: Tcm,
    /// The adaptive controller (per-class baselines, converged set, drift
    /// bookkeeping and ladder position), if adaptive control is on.
    pub controller: Option<AdaptiveController>,
    /// The per-class rates the master has broadcast.
    pub rates: GapTable,
    /// The round-by-round record.
    pub ledger: MasterLedger,
    /// The cost inputs at the last round close: the next close's cost fraction
    /// is measured from them.
    pub cost_base: CostInputs,
}

impl MasterState {
    /// The state of a master that has closed no round, at `rates` and with the
    /// crash-quarantine table `quarantine`.
    pub(super) fn fresh(setup: &MasterSetup, rates: GapTable, quarantine: Vec<Option<u64>>) -> Self {
        let config = &setup.config;
        let ipr = (config.intervals_per_round as u64).max(1);
        let mut scheduler =
            RoundScheduler::new(setup.n_threads, ipr, config.round_deadline_intervals);
        scheduler.set_quarantine(quarantine);
        MasterState {
            scheduler,
            tcm: Tcm::new(setup.n_threads),
            controller: AdaptiveController::new(config),
            rates,
            ledger: MasterLedger {
                last_moved_round: vec![None; setup.n_threads],
                ..MasterLedger::default()
            },
            cost_base: CostInputs::default(),
        }
    }
}

/// A crash-recovery snapshot, taken every
/// `ProfilerConfig::checkpoint_every_rounds` closed rounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfilerCheckpoint {
    /// Master epoch at snapshot time.
    pub epoch: u64,
    /// Length of the master's accepted-OAL log at snapshot time: a restore
    /// truncates the log to it and replays the rest.
    pub oal_log_len: usize,
    /// Length of the master's log of per-close cost inputs at snapshot time:
    /// the replay's closes read the entries past it.
    pub cost_log_len: usize,
    /// A clone of the master's restorable state.
    pub state: MasterState,
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
/// Feed OALs with [`RoundScheduler::ingest`], collect closed rounds with
/// [`RoundScheduler::ready_rounds`], and finish with [`RoundScheduler::flush`] +
/// [`RoundScheduler::take_late`].
///
/// The scheduler is part of the master's restorable state
/// ([`crate::master::MasterState`]): a checkpoint holds a clone, and a restore
/// assigns it back. Its containers are ordered, so
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
