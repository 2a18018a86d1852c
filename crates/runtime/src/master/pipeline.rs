//! The master core: every piece of master state in one struct, and the stages
//! that move it — ingest → close round (reduce, journal, control) → plan →
//! finish → [`MasterCore::output`].
//!
//! The core holds no cluster. Each read of the live cluster and each effect on
//! it is a call through a [`MasterBoundary`], so every stage runs in a unit
//! test against a fake boundary, and a recorded run replays through a replaying
//! one. What a restore reinstates is one field, [`MasterState`], and a
//! checkpoint is a clone of it (DESIGN.md §12).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Instant;

use jessy_core::tcm::SparseTcm;
use jessy_core::{
    DegradeStep, HomeAwareAnalyzer, Oal, RateCause, RoundAccrual, RoundOutcome, RoundSummary,
    SamplingRate,
};
use jessy_gos::{ClassId, ObjectId};
use jessy_net::{MasterCrashWindow, MsgClass, NodeId};
use jessy_obs::EventKind;

use super::boundary::{CostInputs, MasterBoundary, MasterSetup};
use super::state::{ClosedRound, Ingest, MasterState, ProfilerCheckpoint};
use super::{AppliedRateChange, EpochOal, MasterOutput};
use crate::dynamic::{plan_epoch, Directive, PlanInputs, RebalanceConfig};

/// Work counted as it happens, for the report. A restore never rolls these
/// back: doing so would falsify the run report.
#[derive(Debug, Default)]
struct Counters {
    /// Real nanoseconds spent ingesting OALs and building TCM rounds.
    build_ns: u64,
    checkpoints_taken: u64,
    restores: u64,
    replayed_oals: u64,
    quarantined_nodes: u64,
    /// Straggler demotions.
    stragglers: u64,
}

/// The gray-failure detector's observations (`straggler_lag_intervals`). They
/// describe the live regime, so a restore resets them.
#[derive(Debug)]
struct Stragglers {
    threshold: f64,
    /// The crash-quarantine table in force at startup: what a straggler's
    /// threads revert to when the node recovers.
    base: Vec<Option<u64>>,
    /// Per-node progress-deficit EWMA (α = 0.3), in intervals behind the
    /// fastest-progressing node per round close.
    lag_ewma: Vec<f64>,
    /// Per-node minimum interval watermark at the previous round close, the
    /// baseline for the next progress-deficit measurement.
    prev_node_min: Vec<u64>,
    /// Per-node demotion flag (node currently prorated out of coverage).
    demoted: Vec<bool>,
}

/// The master: all of its state, and the stages that move it. See the module
/// docs.
pub struct MasterCore {
    setup: MasterSetup,
    /// What a restore reinstates.
    state: MasterState,
    /// Round scratch of the reduce step, empty between rounds.
    accrual: RoundAccrual,
    counters: Counters,
    /// Per-object accessor statistics for home repair (Section V's home
    /// effect): kept only when rebalancing with `migrate_homes` on.
    homeaware: Option<HomeAwareAnalyzer>,
    stragglers: Option<Stragglers>,
    /// Classes whose convergence was already journaled (an event fires once per
    /// class, even when replay re-closes the round that froze it).
    announced_converged: BTreeSet<ClassId>,
    /// Current master epoch (bumped and published on every restore).
    epoch: u64,
    /// Latest snapshot, if checkpointing is on and one was taken.
    latest_checkpoint: Option<ProfilerCheckpoint>,
    /// Accepted OALs in arrival order: the whole run under `record_oals`, else
    /// those since the latest checkpoint. Past the checkpoint's `oal_log_len` it
    /// is the durable WAL a restore replays.
    oal_log: Vec<Oal>,
    /// The cost inputs each live round close read, kept and cleared with
    /// `oal_log`: durable like it, so a restore can hand the replay the inputs
    /// of the closes it repeats.
    cost_log: Vec<CostInputs>,
    /// The logged inputs the rest of a restore's replay closes read, in order.
    replay_costs: VecDeque<CostInputs>,
    /// Master crash windows, sorted by `until_interval`; `next_crash` indexes the
    /// first window whose restart has not fired yet.
    master_crashes: Vec<MasterCrashWindow>,
    next_crash: usize,
    /// One past the highest OAL interval ingested — tells `finish` whether a
    /// pending crash window actually intersected the run.
    max_interval_seen: u64,
}

impl MasterCore {
    /// A master that has closed no round, built from the boundary's
    /// [`MasterSetup`]. Threads on nodes that crash more than
    /// `quarantine_after_crashes` times are quarantined from the start: the
    /// table is a pure function of the fault plan and the initial placement.
    pub fn new(fx: &mut impl MasterBoundary) -> Self {
        let setup = fx.setup();
        let n_nodes = setup.n_nodes;
        let mut master_crashes =
            setup.faults.as_ref().map(|p| p.master_crashes.clone()).unwrap_or_default();
        master_crashes.sort_unstable_by_key(|w| (w.until_interval, w.from_interval));
        let mut quarantine = vec![None; setup.n_threads];
        let mut counters = Counters::default();
        if let (Some(plan), Some(threshold)) = (&setup.faults, setup.config.quarantine_after_crashes)
        {
            let placement = fx.placement();
            quarantine = placement.iter().map(|node| plan.quarantine_from(*node, threshold)).collect();
            let expelled: BTreeSet<NodeId> = placement
                .iter()
                .zip(&quarantine)
                .filter_map(|(node, q)| q.map(|_| *node))
                .collect();
            counters.quarantined_nodes = expelled.len() as u64;
            for node in expelled {
                let crashes = plan.crash_count(node);
                fx.emit(EventKind::NodeQuarantined { node: node.0, crashes });
            }
        }
        let homeaware = setup
            .rebalance
            .filter(|c| c.migrate_homes)
            .map(|_| HomeAwareAnalyzer::new(n_nodes, setup.n_threads));
        let stragglers = setup.config.straggler_lag_intervals.map(|threshold| Stragglers {
            threshold,
            base: quarantine.clone(),
            lag_ewma: vec![0.0; n_nodes],
            prev_node_min: vec![0; n_nodes],
            demoted: vec![false; n_nodes],
        });
        MasterCore {
            accrual: RoundAccrual::new(setup.n_threads),
            state: MasterState::fresh(&setup, setup.rates.clone(), quarantine),
            setup,
            counters,
            homeaware,
            stragglers,
            announced_converged: BTreeSet::new(),
            epoch: 0,
            latest_checkpoint: None,
            oal_log: Vec::new(),
            cost_log: Vec::new(),
            replay_costs: VecDeque::new(),
            master_crashes,
            next_crash: 0,
            max_interval_seen: 0,
        }
    }

    /// Ingest one mailbox batch, closing every round it completes.
    pub fn ingest(&mut self, batch: Vec<EpochOal>, fx: &mut impl MasterBoundary) {
        for msg in batch {
            self.ingest_one(msg, fx);
        }
    }

    fn ingest_one(&mut self, msg: EpochOal, fx: &mut impl MasterBoundary) {
        let EpochOal { epoch, oal } = msg;
        // Master restart: the first OAL at/after the current crash window's end
        // finds the master rebooting — restore the latest checkpoint and replay.
        // OALs in flight while the master is down are *deferred, not dropped*: the
        // transport (sender retransmission in a real cluster, the mailbox here)
        // holds them until the restart drains the backlog, so crash loss is
        // confined to the volatile state the snapshot + replay reconstruct.
        while self.next_crash < self.master_crashes.len()
            && oal.interval >= self.master_crashes[self.next_crash].until_interval
        {
            self.next_crash += 1;
            self.restore(fx);
        }
        self.max_interval_seen = self.max_interval_seen.max(oal.interval + 1);
        let stale = epoch < self.epoch;
        let keep_log = self.keep_log();
        if keep_log {
            self.oal_log.push(oal.clone());
        }
        match self.state.scheduler.ingest_epoch(oal, stale) {
            Ingest::Duplicate | Ingest::Fenced => {
                // Drop silently; a lossy network retransmitting is not new data.
                if keep_log {
                    self.oal_log.pop();
                }
                return;
            }
            Ingest::Accepted | Ingest::Late => self.state.ledger.oals += 1,
        }
        for closed in self.state.scheduler.ready_rounds() {
            self.close_round(closed, fx);
        }
    }

    /// Without `record_oals` the logs are the WAL of a master that can crash;
    /// without crash windows in the fault plan nothing would ever read them.
    fn keep_log(&self) -> bool {
        self.setup.config.record_oals || !self.master_crashes.is_empty()
    }

    /// Close one round: reduce it, journal it, hand it to the controller,
    /// watch for stragglers, plan when an epoch is due and checkpoint on
    /// cadence.
    fn close_round(&mut self, closed: ClosedRound, fx: &mut impl MasterBoundary) {
        // No thread moves while the master holds the token, so one read of the
        // placement serves every stage of the close.
        let placement = fx.placement();
        if let Some(ha) = &mut self.homeaware {
            // Home-repair evidence rides on the same OAL stream the TCM reducer
            // consumes; the live placement maps each logging thread to a node.
            for oal in &closed.oals {
                ha.ingest(oal, &placement);
            }
        }
        let summary = self.reduce_round(&closed.oals);
        let ledger = &mut self.state.ledger;
        ledger.rounds += 1;
        ledger.objects_organized += summary.objects as u64;
        ledger.round_coverage.push(closed.coverage);
        let cost_fraction = self.cost_fraction(fx);
        if self.setup.config.overhead_budget.is_some_and(|budget| cost_fraction > budget) {
            self.state.ledger.budget_over_rounds += 1;
        }
        fx.emit(EventKind::RoundClosed {
            round: closed.round,
            oals: closed.oals.len() as u64,
            coverage: closed.coverage,
            deadline_hit: closed.deadline_hit,
            cost_fraction,
        });
        self.control(&closed, &summary.per_class, cost_fraction, fx);
        self.update_stragglers(closed.round, &placement, fx);

        // Dynamic balancing (Section V's policy, built on the profiles): a
        // planning epoch once `after_rounds` rounds have closed, then — with
        // `every_rounds` — one every `k` closes. `rounds` is restored with the
        // ledger, so a replayed close re-derives exactly the epochs it did live.
        if let Some(cfg) = self.setup.rebalance {
            let rounds = self.state.ledger.rounds;
            let due = match cfg.every_rounds {
                Some(every) => {
                    rounds >= cfg.after_rounds
                        && (rounds - cfg.after_rounds).is_multiple_of(every.max(1))
                }
                None => rounds == cfg.after_rounds.max(1),
            };
            if due {
                self.plan_placement_epoch(&cfg, closed.round, &placement, fx);
            }
        }

        // Periodic snapshot for crash recovery.
        if let Some(every) = self.setup.config.checkpoint_every_rounds {
            if every > 0 && self.state.ledger.rounds.is_multiple_of(every) {
                self.take_checkpoint(fx);
            }
        }
    }

    /// The one place OALs reach the TCM: accrue one round's OALs (a scheduler
    /// round, or the late fold at the end of the run) into the cumulative map,
    /// timed into `build_ns`.
    fn reduce_round(&mut self, oals: &[Oal]) -> RoundSummary {
        let t0 = Instant::now();
        for oal in oals {
            self.accrual.ingest(oal);
        }
        let summary = self.accrual.close(&mut self.state.tcm);
        self.counters.build_ns += t0.elapsed().as_nanos() as u64;
        summary
    }

    /// The profiling cost of the window since the previous round close, as a
    /// fraction of the application compute charged in that window. Cost =
    /// profiling wire bytes at the fabric's per-byte rate, plus OAL log appends
    /// at the GOS cost model's append rate. Every input is a virtual counter, so
    /// the fraction is deterministic and free of host-time noise; the
    /// `RoundClosed` event journals it. A close that a restore repeats reads
    /// the inputs its live close read: no worker clock moves while the replay
    /// closes rounds back to back.
    fn cost_fraction(&mut self, fx: &mut impl MasterBoundary) -> f64 {
        let now = self.replay_costs.pop_front().unwrap_or_else(|| fx.cost_inputs());
        if self.keep_log() {
            self.cost_log.push(now);
        }
        let base = std::mem::replace(&mut self.state.cost_base, now);
        let d_compute = now.compute_ns.saturating_sub(base.compute_ns);
        if d_compute == 0 {
            return 0.0;
        }
        let cost_ns = now.prof_bytes.saturating_sub(base.prof_bytes) as f64 * self.setup.ns_per_byte
            + now.oal_entries.saturating_sub(base.oal_entries) as f64
                * self.setup.log_append_ns as f64;
        cost_ns / d_compute as f64
    }

    /// The control stage: feed the round to the adaptive controller and carry
    /// out its decision.
    fn control(
        &mut self,
        closed: &ClosedRound,
        per_class: &HashMap<ClassId, SparseTcm>,
        cost_fraction: f64,
        fx: &mut impl MasterBoundary,
    ) {
        let Some(ctl) = &mut self.state.controller else {
            return;
        };
        let (names, n_nodes, round) = (&self.setup.class_names, self.setup.n_nodes, closed.round);
        match ctl.on_round(per_class, &self.state.rates, closed.coverage, cost_fraction) {
            RoundOutcome::Applied(changes) => {
                for ch in changes {
                    let visited = broadcast_rate(fx, n_nodes, ch.class, ch.new_state.rate);
                    let class_name = names[&ch.class].clone();
                    let new_rate = ch.new_state.rate.label();
                    let drift = ch.cause == RateCause::Drift;
                    if drift {
                        // The class is live again: let its eventual
                        // re-convergence journal a fresh ClassConverged, so
                        // the Drifted→Converged span is the lag.
                        self.announced_converged.remove(&ch.class);
                        fx.emit(EventKind::ClassDrifted {
                            round,
                            class: class_name.clone(),
                            relative_distance: ch.relative_distance,
                            new_rate: new_rate.clone(),
                        });
                    }
                    fx.emit(EventKind::RateChanged {
                        round,
                        class: class_name.clone(),
                        new_rate: new_rate.clone(),
                        relative_distance: ch.relative_distance,
                    });
                    self.state.ledger.rate_changes.push(AppliedRateChange {
                        // Rounds closed including this one (a restored
                        // ledger keeps counting where the snapshot stood).
                        round: self.state.ledger.rounds,
                        class_name,
                        new_rate,
                        relative_distance: ch.relative_distance,
                        resampled_objects: visited,
                        drift,
                    });
                }
            }
            RoundOutcome::SkippedLowCoverage { coverage, min_coverage } => {
                fx.emit(EventKind::RoundSkipped { round, coverage, min_coverage });
                self.state.ledger.skipped_rounds += 1;
            }
            // Merged rounds defer rate decisions to the cadence boundary —
            // cheaper rounds, same baselines; nothing to journal per round.
            // Settling rounds are over budget but still inside the last
            // rung's transition window: the next clean measurement decides.
            RoundOutcome::MergedOut { .. } | RoundOutcome::Settling => {}
            RoundOutcome::Degraded(step) => {
                match &step {
                    // The controller already coarsened its rate table; the
                    // workers hear of it exactly as they would of an
                    // accuracy-driven rate change.
                    DegradeStep::CoarsenRate { class, new_state } => {
                        broadcast_rate(fx, n_nodes, *class, new_state.rate);
                    }
                    DegradeStep::SummaryOnly => fx.set_summary_only(true),
                    DegradeStep::MergeRounds { .. } | DegradeStep::Exhausted => {}
                }
                fx.emit(EventKind::BudgetDegraded { round, step: step.label(), cost_fraction });
            }
        }
        // Journal each class the moment its rate freezes (once per class —
        // replay may re-close the round that froze it).
        for class in self.state.rates.classes() {
            if ctl.is_converged(class) && self.announced_converged.insert(class) {
                fx.emit(EventKind::ClassConverged { round, class: names[&class].clone() });
            }
        }
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
    fn update_stragglers(&mut self, round: u64, placement: &[NodeId], fx: &mut impl MasterBoundary) {
        let Some(s) = &mut self.stragglers else {
            return;
        };
        let scheduler = &mut self.state.scheduler;
        let wm = scheduler.watermarks().to_vec();
        let mut node_min: Vec<Option<u64>> = vec![None; s.lag_ewma.len()];
        for (t, node) in placement.iter().enumerate() {
            let slot = &mut node_min[node.index()];
            *slot = Some(slot.map_or(wm[t], |m| m.min(wm[t])));
        }
        let deltas: Vec<Option<u64>> = node_min
            .iter()
            .zip(&s.prev_node_min)
            .map(|(m, prev)| m.map(|m| m.saturating_sub(*prev)))
            .collect();
        let max_delta = deltas.iter().flatten().copied().max().unwrap_or(0);
        for (prev, m) in s.prev_node_min.iter_mut().zip(&node_min) {
            if let Some(m) = m {
                *prev = *m;
            }
        }
        if max_delta == 0 {
            // Nothing progressed since the last close (e.g. a burst of closes
            // from one ingest): no signal, keep the EWMAs as they are.
            return;
        }
        let mut table = scheduler.quarantine_table();
        let mut dirty = false;
        for (n, delta) in deltas.iter().enumerate() {
            let Some(delta) = *delta else {
                continue; // hosts no threads; nothing to observe
            };
            let lag = (max_delta - delta) as f64;
            s.lag_ewma[n] = 0.3 * lag + 0.7 * s.lag_ewma[n];
            let on_node = placement.iter().enumerate().filter(|(_, node)| node.index() == n);
            if !s.demoted[n] && s.lag_ewma[n] > s.threshold {
                s.demoted[n] = true;
                self.counters.stragglers += 1;
                for (t, _) in on_node {
                    // The thread owes nothing beyond what it has already
                    // reported; a tighter crash expulsion stays in force.
                    table[t] = Some(table[t].map_or(wm[t], |q| q.min(wm[t])));
                }
                dirty = true;
                let lag_ewma = s.lag_ewma[n];
                fx.emit(EventKind::StragglerDemoted { node: n as u16, round, lag_ewma });
            } else if s.demoted[n] && s.lag_ewma[n] < s.threshold / 2.0 {
                s.demoted[n] = false;
                for (t, _) in on_node {
                    table[t] = s.base[t];
                }
                dirty = true;
                fx.emit(EventKind::StragglerRestored { node: n as u16, round });
            }
        }
        if dirty {
            scheduler.set_quarantine(table);
        }
    }

    /// One planning epoch: decide the moves over the cumulative map
    /// ([`plan_epoch`]), post them as epoch-stamped directives, then, with
    /// `migrate_homes`, repair homes.
    fn plan_placement_epoch(
        &mut self,
        cfg: &RebalanceConfig,
        round: u64,
        placement: &[NodeId],
        fx: &mut impl MasterBoundary,
    ) {
        let homes: Option<BTreeMap<ObjectId, NodeId>> = self.homeaware.as_ref().map(|ha| {
            let objs = ha.objects();
            let homes = fx.homes(&objs);
            objs.into_iter().zip(homes).collect()
        });
        let affinity = self.homeaware.as_ref().zip(homes.as_ref()).map(|(ha, h)| ha.affinity(|o| h[&o]));
        let footprints = fx.footprints();
        let world = PlanInputs {
            n_nodes: self.setup.n_nodes,
            placement,
            footprints: &footprints,
            affinity: affinity.as_deref(),
        };
        let ledger = &mut self.state.ledger;
        let (issued, intra_before, intra_after) = plan_epoch(
            &self.state.tcm,
            cfg,
            round,
            &world,
            &mut ledger.last_moved_round,
            &mut ledger.placement,
        );
        let epoch = self.epoch;
        let directives: Vec<_> =
            issued.iter().map(|m| (m.thread, Directive { dest: m.to, epoch })).collect();
        fx.post_directives(&directives);
        fx.emit(EventKind::PlacementPlanned {
            round,
            epoch,
            directives: issued.len() as u64,
            intra_before,
            intra_after,
        });
        // Home repair (the paper's Section V "home effect"): collocation only
        // pays once shared state is *homed* where the threads run. The plan lands
        // groups on their data and movers carry no homes; this pass repairs the
        // rest, pulling each object whose dominant accessor node strictly beats
        // its current home onto that node. Nodes a mover is leaving this epoch
        // are skipped — their evidence describes a placement that is about to
        // change.
        if let (Some(ha), Some(homes)) = (&mut self.homeaware, &homes) {
            let report = ha.build(|o| homes[&o], placement);
            let leaving: BTreeSet<NodeId> = issued.iter().map(|m| m.from).collect();
            let moves: Vec<(ObjectId, NodeId)> = report
                .recommendations
                .iter()
                .filter(|rec| !leaving.contains(&rec.to))
                .map(|rec| (rec.obj, rec.to))
                .collect();
            let (repaired, repaired_bytes) = fx.relocate_homes(&moves);
            if repaired > 0 || !issued.is_empty() {
                // The world changed: dominance evidence must be re-earned
                // against the post-repair placement and homes.
                ha.clear();
            }
            ledger.placement.homes_repaired += repaired as u64;
            ledger.placement.repaired_bytes += repaired_bytes as u64;
        }
        ledger.planned_migrations.extend(issued);
    }

    /// Snapshot the restorable state. Without `record_oals` the logs are
    /// drained: OALs folded into the snapshot no longer need replaying.
    fn take_checkpoint(&mut self, fx: &mut impl MasterBoundary) {
        self.counters.checkpoints_taken += 1;
        if !self.setup.config.record_oals {
            self.oal_log.clear();
            self.cost_log.clear();
        }
        self.latest_checkpoint = Some(ProfilerCheckpoint {
            epoch: self.epoch,
            oal_log_len: self.oal_log.len(),
            cost_log_len: self.cost_log.len(),
            state: self.state.clone(),
        });
        let (round, epoch) = (self.state.ledger.rounds, self.epoch);
        fx.emit(EventKind::CheckpointTaken { round, epoch });
    }

    /// Master restart: reinstate the latest checkpoint (or restart cold from
    /// round zero if none was ever taken), bump and publish the epoch with the
    /// rate table, then deterministically replay the logged post-checkpoint
    /// OALs. Because the log's tail holds exactly the accepted-since-checkpoint
    /// stream, checkpoint + replay is an *identity transform* on accepted state:
    /// when no OALs were dropped by message faults, the recovered TCM is
    /// bit-identical to the uninterrupted run's. The closes the replay repeats
    /// read the cost inputs their live closes logged.
    fn restore(&mut self, fx: &mut impl MasterBoundary) {
        self.counters.restores += 1;
        let (logged, costs) =
            self.latest_checkpoint.as_ref().map_or((0, 0), |cp| (cp.oal_log_len, cp.cost_log_len));
        let replay = self.oal_log.split_off(logged);
        self.replay_costs = self.cost_log.split_off(costs).into();
        match &self.latest_checkpoint {
            Some(cp) => {
                self.state = cp.state.clone();
                // Re-impose the checkpointed rate table (the restored master
                // re-broadcasts the rates it knew); replay re-derives later steps.
                let rates = &self.state.rates;
                let table: Vec<_> =
                    rates.classes().into_iter().map(|c| (c, rates.state(c).rate)).collect();
                fx.impose_rates(&table);
            }
            None => {
                // Cold restart: no snapshot, so the replay spans the full run.
                // Worker rate tables are left untouched — without a snapshot the
                // restarted master has no record to re-broadcast; the controller
                // re-baselines against the rates currently in force.
                let rates = self.state.rates.clone();
                let quarantine = self.state.scheduler.quarantine_table();
                self.state = MasterState::fresh(&self.setup, rates, quarantine);
            }
        }
        if let Some(ha) = &mut self.homeaware {
            ha.clear();
        }
        // The summary-only switch lives in worker-visible profiler state: re-sync
        // it to the restored ladder position (replay re-derives later rungs).
        if self.setup.config.overhead_budget.is_some() {
            let on = self.state.controller.as_ref().is_some_and(|c| c.summary_only());
            fx.set_summary_only(on);
        }
        // Straggler demotions are volatile observations of the dead regime: drop
        // any overlay back to the crash-quarantine base and re-observe.
        if let Some(s) = &mut self.stragglers {
            self.state.scheduler.set_quarantine(s.base.clone());
            s.lag_ewma.fill(0.0);
            s.prev_node_min.fill(0);
            s.demoted.fill(false);
        }

        // New regime: bump the epoch, publish it to the workers, and account the
        // epoch + rate-table broadcast that re-registration answers carry.
        self.epoch += 1;
        fx.publish_epoch(self.epoch);
        let n_rates = self.state.rates.classes().len();
        for n in 0..self.setup.n_nodes {
            fx.account(NodeId::MASTER, NodeId(n as u16), MsgClass::RateChange, 24 + 12 * n_rates);
        }
        let replayed = replay.len() as u64;
        fx.emit(EventKind::MasterRestored { epoch: self.epoch, replayed });
        for oal in replay {
            self.counters.replayed_oals += 1;
            self.ingest_one(EpochOal { epoch: self.epoch, oal }, fx);
        }
        self.replay_costs.clear();
    }

    /// Flush every buffered round in order, then fold late arrivals into the
    /// cumulative TCM (run finished; no more OALs will arrive). Late OALs improve
    /// the final map but never steer the controller — their rounds already
    /// closed.
    pub fn finish(&mut self, fx: &mut impl MasterBoundary) {
        // The run ended while the master was down: no post-window OAL ever
        // arrived to trigger the restart, so fire it now — the recovered output
        // must come from checkpoint + replay of the buffered backlog, not from the
        // doomed in-memory state. Windows entirely beyond the last OAL never
        // happened as far as the profiled run is concerned.
        while self.next_crash < self.master_crashes.len()
            && self.master_crashes[self.next_crash].from_interval < self.max_interval_seen
        {
            self.next_crash += 1;
            self.restore(fx);
        }
        for closed in self.state.scheduler.flush() {
            self.close_round(closed, fx);
        }
        let late = self.state.scheduler.take_late();
        if !late.is_empty() {
            let summary = self.reduce_round(&late);
            self.state.ledger.objects_organized += summary.objects as u64;
        }
        let (fenced, applied, bytes) = fx.migrations();
        let placement = &mut self.state.ledger.placement;
        placement.fenced_directives = fenced;
        placement.applied_migrations = applied;
        placement.migrated_bytes = bytes;
    }

    /// Everything the master produced.
    pub fn output(self) -> MasterOutput {
        let MasterState { scheduler, tcm, controller, ledger, .. } = self.state;
        let config = self.setup.config;
        let controller = controller.as_ref();
        MasterOutput {
            tcm,
            oals_ingested: ledger.oals,
            rounds: ledger.rounds,
            objects_organized: ledger.objects_organized,
            tcm_build_real_ns: self.counters.build_ns,
            rate_changes: ledger.rate_changes,
            skipped_rounds: ledger.skipped_rounds,
            round_coverage: ledger.round_coverage,
            deadline_rounds: scheduler.deadline_rounds(),
            late_oals: scheduler.late_count(),
            duplicate_oals: scheduler.duplicate_count(),
            planned_migrations: ledger.planned_migrations,
            placement: ledger.placement,
            oal_log: if config.record_oals { self.oal_log } else { Vec::new() },
            checkpoints_taken: self.counters.checkpoints_taken,
            restores: self.counters.restores,
            replayed_oals: self.counters.replayed_oals,
            fenced_oals: scheduler.fenced_count(),
            quarantined_nodes: self.counters.quarantined_nodes,
            converged_classes: controller.map_or(0, |c| c.converged_count() as u64),
            final_epoch: self.epoch,
            stragglers: self.counters.stragglers,
            budget_over_rounds: ledger.budget_over_rounds,
            budget_degrades: controller.map_or(0, |c| c.degrades()),
            drift_reactivations: controller.map_or(0, |c| c.reactivations()),
        }
    }
}

/// Tell every worker node a class's rate changed — a 16-byte accounted notice
/// each — and run the resampling walk; returns the objects it visited.
fn broadcast_rate(
    fx: &mut impl MasterBoundary,
    n_nodes: usize,
    class: ClassId,
    rate: SamplingRate,
) -> usize {
    for n in 0..n_nodes {
        fx.account(NodeId::MASTER, NodeId(n as u16), MsgClass::RateChange, 16);
    }
    fx.resample(class, rate)
}

#[cfg(test)]
mod tests {
    //! Every stage against a fake boundary: no cluster, no executor.

    use super::*;
    use jessy_core::{GapTable, OalEntry, ProfilerConfig};
    use jessy_net::{FaultPlan, ThreadId};

    use crate::master::boundary::{CostInputs, MasterBoundary};

    /// One effect the core had on the fake cluster.
    #[derive(Debug, Clone, PartialEq)]
    enum Effect {
        Emit(EventKind),
        Account(NodeId, NodeId, MsgClass, usize),
        Resample(ClassId, SamplingRate),
        Impose(Vec<(ClassId, SamplingRate)>),
        SummaryOnly(bool),
        Epoch(u64),
        Relocate(Vec<(ObjectId, NodeId)>),
        Post(Vec<(ThreadId, Directive)>),
    }

    /// A cluster that answers every read from fixed values and records every
    /// effect. Each resampling walk visits seven objects. The `k`-th cost read
    /// finds `1000·k` ns of compute and `k²` profiling bytes, so at one ns per
    /// byte a close measured from read `a` to read `b` costs `(a + b) / 1000`.
    struct Fake {
        setup: MasterSetup,
        placement: Vec<NodeId>,
        effects: Vec<Effect>,
        cost_reads: u64,
    }

    impl MasterBoundary for Fake {
        fn setup(&mut self) -> MasterSetup {
            self.setup.clone()
        }
        fn next_batch(&mut self) -> Option<Vec<EpochOal>> {
            None
        }
        fn cost_inputs(&mut self) -> CostInputs {
            self.cost_reads += 1;
            let k = self.cost_reads;
            CostInputs { compute_ns: 1000 * k, prof_bytes: k * k, oal_entries: 0 }
        }
        fn placement(&mut self) -> Vec<NodeId> {
            self.placement.clone()
        }
        fn homes(&mut self, objs: &[ObjectId]) -> Vec<NodeId> {
            vec![NodeId(0); objs.len()]
        }
        fn footprints(&mut self) -> Vec<f64> {
            vec![0.0; self.placement.len()]
        }
        fn migrations(&mut self) -> (u64, u64, u64) {
            (0, 0, 0)
        }
        fn emit(&mut self, event: EventKind) {
            self.effects.push(Effect::Emit(event));
        }
        fn account(&mut self, from: NodeId, to: NodeId, class: MsgClass, bytes: usize) {
            self.effects.push(Effect::Account(from, to, class, bytes));
        }
        fn resample(&mut self, class: ClassId, rate: SamplingRate) -> usize {
            self.effects.push(Effect::Resample(class, rate));
            7
        }
        fn impose_rates(&mut self, rates: &[(ClassId, SamplingRate)]) {
            self.effects.push(Effect::Impose(rates.to_vec()));
        }
        fn set_summary_only(&mut self, on: bool) {
            self.effects.push(Effect::SummaryOnly(on));
        }
        fn publish_epoch(&mut self, epoch: u64) {
            self.effects.push(Effect::Epoch(epoch));
        }
        fn relocate_homes(&mut self, moves: &[(ObjectId, NodeId)]) -> (usize, usize) {
            self.effects.push(Effect::Relocate(moves.to_vec()));
            (0, 0)
        }
        fn post_directives(&mut self, directives: &[(ThreadId, Directive)]) {
            self.effects.push(Effect::Post(directives.to_vec()));
        }
    }

    /// Two threads, one interval per round, one 64-byte class at 1X.
    fn config() -> ProfilerConfig {
        ProfilerConfig { intervals_per_round: 1, ..ProfilerConfig::tracking_at(SamplingRate::NX(1)) }
    }

    fn fake(config: ProfilerConfig, placement: &[u16]) -> Fake {
        let rates = GapTable::new(4096);
        rates.register_class(ClassId(0), 64, config.initial_rate);
        let placement: Vec<NodeId> = placement.iter().map(|&n| NodeId(n)).collect();
        let setup = MasterSetup {
            config,
            n_threads: placement.len(),
            n_nodes: placement.iter().map(|n| n.index() + 1).max().unwrap_or(1),
            rebalance: None,
            faults: None,
            ns_per_byte: 0.0,
            log_append_ns: 0,
            rates,
            class_names: BTreeMap::from([(ClassId(0), "Body".to_string())]),
        };
        Fake { setup, placement, effects: Vec::new(), cost_reads: 0 }
    }

    /// Thread `thread`'s OAL for `interval`: each object logged at `bytes`.
    fn oal(thread: u32, interval: u64, objs: &[u32], bytes: u64) -> EpochOal {
        let entries = objs
            .iter()
            .map(|&o| OalEntry { obj: ObjectId(o), class: ClassId(0), bytes })
            .collect();
        EpochOal { epoch: 0, oal: Oal { thread: ThreadId(thread), interval, entries } }
    }

    /// Both threads share `objs[r]` in interval `r`.
    fn shared_rounds(objs: &[&[u32]], bytes: u64) -> Vec<EpochOal> {
        let mut batch = Vec::new();
        for (r, round) in objs.iter().enumerate() {
            batch.push(oal(0, r as u64, round, bytes));
            batch.push(oal(1, r as u64, round, bytes));
        }
        batch
    }

    fn run(fx: &mut Fake, batch: Vec<EpochOal>) -> MasterOutput {
        let mut core = MasterCore::new(fx);
        core.ingest(batch, fx);
        core.finish(fx);
        core.output()
    }

    fn events(fx: &Fake) -> Vec<&EventKind> {
        fx.effects.iter().filter_map(|e| if let Effect::Emit(k) = e { Some(k) } else { None }).collect()
    }

    #[test]
    fn a_changed_round_steps_the_rate_and_broadcasts_it() {
        let mut fx = fake(ProfilerConfig { adaptive_threshold: Some(0.05), ..config() }, &[0, 1]);
        // Round 0 is the baseline; round 1's map is ten times heavier.
        let out = run(&mut fx, shared_rounds(&[&[1], &(1..11).collect::<Vec<_>>()], 64));
        let notices = (0..2u16).map(|n| Effect::Account(NodeId::MASTER, NodeId(n), MsgClass::RateChange, 16));
        let mut broadcast: Vec<Effect> = notices.collect();
        broadcast.push(Effect::Resample(ClassId(0), SamplingRate::NX(2)));
        assert!(fx.effects.windows(3).any(|w| w == broadcast.as_slice()), "{:?}", fx.effects);
        assert_eq!(out.rate_changes.len(), 1);
        let change = &out.rate_changes[0];
        assert_eq!((change.round, change.new_rate.as_str(), change.resampled_objects), (2, "2X", 7));
        assert!(events(&fx).iter().any(|e| matches!(e, EventKind::RateChanged { round: 1, .. })));
        let closes = events(&fx).iter().filter(|e| matches!(e, EventKind::RoundClosed { .. })).count();
        assert_eq!(closes as u64, out.rounds, "every close is journaled");
    }

    #[test]
    fn a_low_coverage_round_is_skipped_not_acted_on() {
        let config = ProfilerConfig {
            adaptive_threshold: Some(0.05),
            round_deadline_intervals: Some(1),
            min_round_coverage: 0.9,
            ..config()
        };
        let mut fx = fake(config, &[0, 1]);
        // Thread 1 never reports: the deadline closes rounds at coverage 1/2.
        let out = run(&mut fx, (0..4).map(|i| oal(0, i, &[1, 2], 64)).collect());
        assert!(out.deadline_rounds > 0);
        assert!(out.skipped_rounds > 0);
        assert!(out.rate_changes.is_empty());
        assert!(!fx.effects.iter().any(|e| matches!(e, Effect::Resample(..))));
        let skipped = events(&fx)
            .into_iter()
            .filter(|e| matches!(e, EventKind::RoundSkipped { coverage, .. } if *coverage == 0.5))
            .count();
        assert_eq!(skipped as u64, out.skipped_rounds, "every skip is journaled at coverage 1/2");
    }

    #[test]
    fn a_slow_node_is_demoted_then_restored() {
        let config = ProfilerConfig {
            round_deadline_intervals: Some(1),
            straggler_lag_intervals: Some(0.5),
            ..config()
        };
        let mut fx = fake(config, &[0, 1]);
        let mut core = MasterCore::new(&mut fx);
        // Thread 1 (node 1) stalls for four intervals while thread 0 advances,
        // then runs as fast as thread 0 again, four intervals behind.
        for i in 0..4 {
            core.ingest(vec![oal(0, i, &[1], 64)], &mut fx);
        }
        for i in 4..14 {
            core.ingest(vec![oal(0, i, &[1], 64), oal(1, i - 4, &[1], 64)], &mut fx);
        }
        core.finish(&mut fx);
        let demoted = events(&fx)
            .iter()
            .position(|e| matches!(e, EventKind::StragglerDemoted { node: 1, .. }))
            .expect("the stalled node is demoted");
        let restored = events(&fx)
            .iter()
            .position(|e| matches!(e, EventKind::StragglerRestored { node: 1, .. }))
            .expect("the recovered node is restored");
        assert!(demoted < restored);
        assert_eq!(core.output().stragglers, 1);
    }

    /// Threads 0/1 and 2/3 correlated but split across two nodes; `every`
    /// closes of planning from round 2.
    fn planned_rounds(every: Option<u64>) -> (Vec<u64>, Vec<Effect>) {
        let mut fx = fake(config(), &[0, 1, 0, 1]);
        fx.setup.rebalance = Some(RebalanceConfig {
            after_rounds: 2,
            every_rounds: every,
            cooldown_rounds: 0,
            migrate_homes: false,
            ..RebalanceConfig::default()
        });
        let batch = (0..6u64)
            .flat_map(|i| (0..4u32).map(move |t| oal(t, i, &[10 + t / 2], 64)))
            .collect();
        run(&mut fx, batch);
        let planned = events(&fx)
            .iter()
            .filter_map(|e| match e {
                EventKind::PlacementPlanned { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        (planned, fx.effects)
    }

    #[test]
    fn planning_epochs_fall_at_after_rounds_and_every_rounds() {
        // Planning follows the close of round `r` once `r + 1` rounds closed.
        let (once, effects) = planned_rounds(None);
        assert_eq!(once, vec![1]);
        let posted: Vec<&Vec<(ThreadId, Directive)>> = effects
            .iter()
            .filter_map(|e| if let Effect::Post(d) = e { Some(d) } else { None })
            .collect();
        assert_eq!(posted.len(), 1);
        assert_eq!(posted[0].len(), 2, "one exchange reunites both pairs: {posted:?}");
        assert!(posted[0].iter().all(|(_, d)| d.epoch == 0));
        let (every, _) = planned_rounds(Some(2));
        assert_eq!(every, vec![1, 3, 5]);
    }

    #[test]
    fn a_master_crash_restores_the_checkpoint_and_replays_bit_for_bit() {
        let config = ProfilerConfig {
            checkpoint_every_rounds: Some(2),
            ..config()
        };
        let objs: Vec<Vec<u32>> = (0..8).map(|r| (r..r + 3 + r % 4).collect()).collect();
        let rounds: Vec<&[u32]> = objs.iter().map(Vec::as_slice).collect();
        let batch = shared_rounds(&rounds, 48);
        let mut calm = fake(config, &[0, 1]);
        let base = run(&mut calm, batch.clone());

        let mut fx = fake(config, &[0, 1]);
        let window = jessy_net::MasterCrashWindow { from_interval: 3, until_interval: 5 };
        fx.setup.faults = Some(FaultPlan { master_crashes: vec![window], ..FaultPlan::default() });
        let crashed = run(&mut fx, batch);
        assert_eq!(crashed.restores, 1);
        assert!(crashed.replayed_oals > 0);
        assert_eq!(crashed.final_epoch, 1);
        let restore = fx.effects.iter().position(|e| matches!(e, Effect::Impose(_))).expect("rates re-imposed");
        assert_eq!(fx.effects[restore + 1], Effect::Epoch(1));
        let bits = |o: &MasterOutput| o.tcm.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&crashed), bits(&base));
        assert!(crashed.tcm.total() > 0.0);
        assert_eq!((crashed.rounds, crashed.oals_ingested), (base.rounds, base.oals_ingested));
    }

    #[test]
    fn every_re_closed_round_journals_the_cost_of_its_live_close() {
        let config = ProfilerConfig { checkpoint_every_rounds: Some(4), ..config() };
        let objs: Vec<Vec<u32>> = (0..10).map(|r| vec![r, r + 1]).collect();
        let rounds: Vec<&[u32]> = objs.iter().map(Vec::as_slice).collect();
        let costs = |crash: Option<jessy_net::MasterCrashWindow>| {
            let mut fx = fake(config, &[0, 1]);
            fx.setup.ns_per_byte = 1.0;
            fx.setup.faults =
                crash.map(|w| FaultPlan { master_crashes: vec![w], ..FaultPlan::default() });
            run(&mut fx, shared_rounds(&rounds, 48));
            events(&fx)
                .into_iter()
                .filter_map(|e| match e {
                    EventKind::RoundClosed { round, cost_fraction, .. } => Some((*round, *cost_fraction)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        // The checkpoint at round 3's close precedes the crash; the restore at
        // interval 7 re-closes rounds 4, 5 and 6 back to back.
        let window = jessy_net::MasterCrashWindow { from_interval: 5, until_interval: 7 };
        let crashed = costs(Some(window));
        let mut live: BTreeMap<u64, f64> = BTreeMap::new();
        let mut re_closed = Vec::new();
        for (round, fraction) in crashed {
            match live.get(&round) {
                Some(&first) => {
                    assert_eq!(fraction, first, "re-closed round {round} reads its live close's cost");
                    re_closed.push(round);
                }
                None => {
                    live.insert(round, fraction);
                }
            }
        }
        assert_eq!(re_closed, vec![4, 5, 6]);
        // The first close past the replay measures from the last re-closed
        // round, as the uninterrupted run does from the same live close.
        let calm: BTreeMap<u64, f64> = costs(None).into_iter().collect();
        assert_eq!(live, calm);
    }
}
