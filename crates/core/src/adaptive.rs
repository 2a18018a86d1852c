//! The adaptive sampling-rate controller (Section II.B.1–II.B.2).
//!
//! *"The basic approach to reaching an optimal sampling rate is to begin with a rough
//! sampling rate, increase it stepwise (by shortening the sampling gap) and compare the
//! distance between the successive correlation matrices. If their distance is small
//! enough (converge to be within some predefined threshold), we stop at the underlying
//! sampling gap."*
//!
//! The controller runs at the central coordinator: after each TCM round it compares
//! every class's round map against the same class's previous round map using the
//! **relative** `E_ABS` distance (Fig. 9 shows relative accuracy tracks absolute
//! accuracy well enough to steer by). A class whose distance exceeds the threshold is
//! stepped one rate finer; a converged class is frozen. Rate changes trigger a
//! **resampling walk** over all existing objects of the class — re-deriving each
//! sampled tag from its sequence number under the new gap — "to prevent those objects
//! sampled at previous rates from accumulating" (the paper measures this walk at
//! ≤ 0.1 % of CPU time; we charge it to the initiating clock).
//!
//! One [`AdaptiveController`], built from the [`ProfilerConfig`], runs every loop
//! below; [`AdaptiveController::on_round`] is its one entry point and returns one
//! flat [`RoundOutcome`].
//!
//! ## Coverage gate
//!
//! A round whose OAL coverage falls below `ProfilerConfig::min_round_coverage` is
//! skipped wholesale — baselines are not updated, no class converges or steps — so
//! the controller only ever reasons about rounds it can trust. Under heavy loss the
//! profiler thus degrades to a fixed-rate profiler instead of thrashing rates on
//! phantom workload shifts.
//!
//! ## Drift re-activation
//!
//! The paper's workloads (Table I) have *stable* sharing patterns, so "converged ⇒
//! frozen forever" is safe there. Under a workload phase change it is not: a frozen
//! class keeps reporting the pre-shift correlation picture and every downstream
//! consumer (the placement engine above all) plans against stale data. With
//! `ProfilerConfig::drift_threshold` set the controller keeps watching converged
//! classes: a post-convergence relative `E_ABS` spike above the drift threshold
//! sustained for [`DRIFT_HYSTERESIS_ROUNDS`] consecutive trusted rounds
//! **un-converges** the class and steps it one rate finer (cause
//! [`RateCause::Drift`]), after which the normal refinement loop re-converges it at
//! whatever rate the new phase needs. The drift threshold sits at or above the
//! convergence threshold, so the two bands cannot chatter; re-activations are
//! bounded per class ([`MAX_DRIFT_REACTIVATIONS`]) so a pathologically unstable
//! class degrades to the frozen behaviour instead of thrashing rates forever. The
//! controller is its own snapshot (it serializes itself, drift state included), so a
//! master restored mid-phase-change resumes the re-convergence exactly where the
//! crashed one left off. Without a drift threshold the controller keeps the
//! frozen-forever behaviour, bit for bit.
//!
//! ## The overhead budget
//!
//! The paper's controller optimizes one variable: TCM accuracy. A production
//! profiler must also bound its *own* cost — access-path charges, OAL wire bytes,
//! reduce work — as a fraction of the compute it observes. Each round the master
//! measures that fraction and feeds it to `on_round`; with
//! `ProfilerConfig::overhead_budget` set, a round whose cost exceeds the budget walks
//! one rung down a deterministic **degradation ladder** instead of adapting:
//!
//! 1. **Coarsen** — step the finest still-coarsenable class one rate down
//!    (fewer sampled objects → fewer log appends and OAL bytes);
//! 2. **Merge rounds** — once every class sits at 1X, halve the controller's
//!    cadence (factor 2, 4, … up to [`MAX_MERGE_FACTOR`]), eliding broadcasts and
//!    resample walks;
//! 3. **Summary-only OALs** — collapse shipped OALs to per-class summaries,
//!    shedding object identity to cut wire bytes (class-grain correlation, the
//!    analogue of the paper's page-grain baseline);
//! 4. **Exhausted** — every lever is pulled; the residual cost is the floor.
//!
//! Rungs are never climbed back up: a one-directional ladder is trivially
//! deterministic and cannot oscillate against the accuracy loop (which still
//! refines within budget). An over-budget round never reaches the accuracy or
//! drift loops, so a drift re-activation can never fire on a round the budget
//! already claimed — the rung wins, and drift waits for a within-budget act point.
//! Without a budget none of this runs, and a budget that is never exceeded is
//! invisible (property-tested).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use jessy_gos::{ClassId, Gos};
use jessy_net::ClockHandle;
use serde::{Deserialize, Serialize};

use crate::accuracy::e_abs_sparse;
use crate::config::ProfilerConfig;
use crate::sampling::{ClassGapState, GapTable, SamplingRate};
use crate::tcm::SparseTcm;

/// Consecutive trusted drifting rounds before a converged class re-activates.
/// Skipped low-coverage and merged-out rounds never advance a streak.
pub const DRIFT_HYSTERESIS_ROUNDS: u32 = 2;

/// Upper bound on drift re-activations per class; past it the class stays frozen,
/// restoring the pre-drift behaviour for pathologically unstable classes.
pub const MAX_DRIFT_REACTIVATIONS: u32 = 8;

/// Ceiling of the round-merge factor: beyond 8× the controller reacts too slowly
/// to workload shifts to be worth the marginal saving.
pub const MAX_MERGE_FACTOR: u32 = 8;

/// Rounds to wait after taking a rung before trusting an over-budget
/// measurement again. One round suffices: the re-arm fault burst lands in the
/// round following the rung's broadcast, and the round after that is clean.
pub const SETTLE_ROUNDS: u32 = 1;

/// Why the controller changed a class's rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RateCause {
    /// The pre-convergence refinement loop: successive maps still too far apart.
    Refine,
    /// Post-convergence drift: a frozen class's map spiked and was re-activated.
    Drift,
}

/// A rate-change decision for one class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateChange {
    /// The class whose rate changed.
    pub class: ClassId,
    /// Its new sampling state.
    pub new_state: ClassGapState,
    /// The relative distance that triggered the change.
    pub relative_distance: f64,
    /// What triggered it: refinement toward convergence, or drift re-activation.
    pub cause: RateCause,
}

/// One rung taken on the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradeStep {
    /// A class's sampling rate stepped one rung coarser.
    CoarsenRate {
        /// The class that was coarsened.
        class: ClassId,
        /// Its new sampling state.
        new_state: ClassGapState,
    },
    /// The controller's cadence halved: it now acts every `factor` rounds.
    MergeRounds {
        /// The new merge factor.
        factor: u32,
    },
    /// OALs degrade to per-class summaries from here on.
    SummaryOnly,
    /// Every lever is already pulled; the cost floor is reached.
    Exhausted,
}

impl DegradeStep {
    /// Stable label for obs events and metrics ("coarsen:c3:2X", "merge_rounds:4",
    /// "summary_only", "exhausted").
    pub fn label(&self) -> String {
        match self {
            DegradeStep::CoarsenRate { class, new_state } => {
                format!("coarsen:{class}:{}", new_state.rate.label())
            }
            DegradeStep::MergeRounds { factor } => format!("merge_rounds:{factor}"),
            DegradeStep::SummaryOnly => "summary_only".to_string(),
            DegradeStep::Exhausted => "exhausted".to_string(),
        }
    }
}

/// What the controller did with one round.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundOutcome {
    /// The round was trusted; these classes step finer (possibly none).
    Applied(Vec<RateChange>),
    /// The round's coverage fell below the configured floor: the baselines were left
    /// untouched and no rates changed. A lossy round compared against a clean
    /// baseline would look artificially different and trigger spurious refinement.
    SkippedLowCoverage {
        /// Fraction of expected (thread, interval) OALs that actually arrived.
        coverage: f64,
        /// The floor the round failed to meet.
        min_coverage: f64,
    },
    /// Within budget, but this round falls between merge-factor act points: the
    /// accuracy loop was not consulted (no baselines, no broadcasts).
    MergedOut {
        /// The merge factor in force.
        factor: u32,
    },
    /// Over budget: one ladder rung was taken instead of adapting.
    Degraded(DegradeStep),
    /// Over budget, but inside the settling window right after a rung: the
    /// measured cost still reflects the transition itself (rate-change
    /// broadcasts, the threads' trap re-arm walks and the resulting fault
    /// burst), so no new rung is taken until a clean round has been measured.
    /// Without this the transition spike cascades the ladder past the rate
    /// that would have held the budget at steady state.
    Settling,
}

/// Stepwise per-class rate refinement driven by relative accuracy, with optional
/// drift watching and overhead-budget ladder (see the module docs).
///
/// The controller is its own crash-recovery snapshot: a master checkpoint holds a
/// clone, and a restore assigns it back. Its containers are ordered, so two equal
/// controllers serialize to identical bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveController {
    threshold: f64,
    min_coverage: f64,
    drift_threshold: Option<f64>,
    budget: Option<f64>,
    /// Per-class previous-round baselines.
    prev_round: BTreeMap<ClassId, SparseTcm>,
    /// Classes frozen at their current rate.
    converged: BTreeSet<ClassId>,
    /// Consecutive drifting rounds per converged class; entries are always ≥ 1
    /// (a streak that resets is removed), keeping snapshots canonical.
    drift_streak: BTreeMap<ClassId, u32>,
    /// Drift re-activations performed per class; entries are always ≥ 1.
    /// [`MAX_DRIFT_REACTIVATIONS`] is enforced against these, so a restore
    /// cannot reset a class's re-activation budget.
    reactivated: BTreeMap<ClassId, u32>,
    /// Merge factor in force (1 = every round).
    merge_factor: u32,
    /// Whether OALs have degraded to per-class summaries.
    summary_only: bool,
    /// Rounds observed under a budget (drives the merge-cadence phase).
    rounds_seen: u64,
    /// Over-budget rounds left to ignore while the last rung's transition
    /// costs wash out.
    cooldown: u32,
    /// Ladder rungs taken so far, so a restored master keeps counting them.
    degrades: u64,
}

impl AdaptiveController {
    /// The controller `config` asks for: `None` without `adaptive_threshold`.
    /// Reads the convergence threshold, `min_round_coverage`, `drift_threshold`
    /// and `overhead_budget`; their domains are `ProfilerConfig::validate`'s to
    /// check.
    pub fn new(config: &ProfilerConfig) -> Option<Self> {
        Some(AdaptiveController {
            threshold: config.adaptive_threshold?,
            min_coverage: config.min_round_coverage,
            drift_threshold: config.drift_threshold,
            budget: config.overhead_budget,
            prev_round: BTreeMap::new(),
            converged: BTreeSet::new(),
            drift_streak: BTreeMap::new(),
            reactivated: BTreeMap::new(),
            merge_factor: 1,
            summary_only: false,
            rounds_seen: 0,
            cooldown: 0,
            degrades: 0,
        })
    }

    /// Feed one round: its per-class maps, its OAL coverage, and the measured
    /// profiling cost as a fraction of charged compute. Decision order: with a
    /// budget, an over-budget round settles or takes one ladder rung (the
    /// accuracy loop is *not* consulted, so its baselines stay clean) and a
    /// within-budget round off the merge cadence merges out; then a round below
    /// the coverage floor is skipped; otherwise the round refines rates and
    /// watches converged classes for drift.
    pub fn on_round(
        &mut self,
        round_per_class: &HashMap<ClassId, SparseTcm>,
        gaps: &GapTable,
        coverage: f64,
        cost_fraction: f64,
    ) -> RoundOutcome {
        if let Some(budget) = self.budget {
            self.rounds_seen += 1;
            if cost_fraction > budget {
                if self.cooldown > 0 {
                    self.cooldown -= 1;
                    return RoundOutcome::Settling;
                }
                let step = self.degrade_once(gaps);
                if !matches!(step, DegradeStep::Exhausted) {
                    self.degrades += 1;
                    self.cooldown = SETTLE_ROUNDS;
                }
                return RoundOutcome::Degraded(step);
            }
            self.cooldown = 0;
            if self.merge_factor > 1 && !self.rounds_seen.is_multiple_of(self.merge_factor as u64) {
                return RoundOutcome::MergedOut { factor: self.merge_factor };
            }
        }
        if coverage < self.min_coverage {
            return RoundOutcome::SkippedLowCoverage {
                coverage,
                min_coverage: self.min_coverage,
            };
        }
        RoundOutcome::Applied(self.refine(round_per_class, gaps))
    }

    /// One trusted round of the accuracy loop; returns the classes stepped finer.
    ///
    /// The first round for a class only records a baseline (there is nothing to
    /// compare against yet). A class at full sampling can never be refined further and
    /// is marked converged.
    fn refine(
        &mut self,
        round_per_class: &HashMap<ClassId, SparseTcm>,
        gaps: &GapTable,
    ) -> Vec<RateChange> {
        let mut changes = Vec::new();
        let mut classes: Vec<&ClassId> = round_per_class.keys().collect();
        classes.sort_unstable(); // deterministic decision order
        for class in classes {
            let cur = &round_per_class[class];
            if self.converged.contains(class) {
                if let Some(drift_threshold) = self.drift_threshold {
                    if let Some(change) = self.watch_drift(*class, cur, gaps, drift_threshold) {
                        changes.push(change);
                    }
                }
            } else if let Some(prev) = self.prev_round.get(class) {
                let d = e_abs_sparse(cur, prev);
                if d <= self.threshold {
                    self.converged.insert(*class);
                } else if gaps.state(*class).real_gap <= 1 {
                    self.converged.insert(*class); // already at full sampling
                } else {
                    let new_state = gaps.step_up(*class);
                    changes.push(RateChange {
                        class: *class,
                        new_state,
                        relative_distance: d,
                        cause: RateCause::Refine,
                    });
                }
            }
            self.prev_round.insert(*class, cur.clone());
        }
        changes
    }

    /// One converged class's drift check for the current round. The baseline is
    /// maintained for converged classes every round, so the comparison is always
    /// against the *previous* round, not the map the class froze on — a gradual
    /// phase change still accumulates into a detectable per-round spike once the
    /// sharing graph actually moves.
    fn watch_drift(
        &mut self,
        class: ClassId,
        cur: &SparseTcm,
        gaps: &GapTable,
        drift_threshold: f64,
    ) -> Option<RateChange> {
        let prev = self.prev_round.get(&class)?;
        let d = e_abs_sparse(cur, prev);
        if d <= drift_threshold {
            self.drift_streak.remove(&class);
            return None;
        }
        let streak = self.drift_streak.entry(class).or_insert(0);
        *streak += 1;
        if *streak < DRIFT_HYSTERESIS_ROUNDS {
            return None;
        }
        self.drift_streak.remove(&class);
        // A class at full sampling already reports the exact map — its "drift" is
        // the workload itself, not a sampling artifact; nothing finer exists.
        if gaps.state(class).real_gap <= 1 {
            return None;
        }
        let seen = self.reactivated.entry(class).or_insert(0);
        if *seen >= MAX_DRIFT_REACTIVATIONS {
            return None; // bound hit: degrade to the frozen behaviour
        }
        *seen += 1;
        self.converged.remove(&class);
        let new_state = gaps.step_up(class);
        Some(RateChange {
            class,
            new_state,
            relative_distance: d,
            cause: RateCause::Drift,
        })
    }

    /// Take one rung down the ladder. Deterministic: the class to coarsen is the
    /// finest still-coarsenable one (smallest real gap; ties break on the lower
    /// class id), because the finest class logs the most and thus buys the most
    /// relief per rung.
    fn degrade_once(&mut self, gaps: &GapTable) -> DegradeStep {
        let mut finest: Option<(u64, ClassId)> = None;
        for class in gaps.classes() {
            let st = gaps.state(class);
            if st.rate == SamplingRate::NX(1) {
                continue; // already at the coarsest rung the paper uses
            }
            let key = (st.real_gap, class);
            if finest.is_none_or(|best| key < best) {
                finest = Some(key);
            }
        }
        if let Some((_, class)) = finest {
            let new_state = gaps.step_down(class);
            return DegradeStep::CoarsenRate { class, new_state };
        }
        if self.merge_factor < MAX_MERGE_FACTOR {
            self.merge_factor = (self.merge_factor * 2).min(MAX_MERGE_FACTOR);
            return DegradeStep::MergeRounds { factor: self.merge_factor };
        }
        if !self.summary_only {
            self.summary_only = true;
            return DegradeStep::SummaryOnly;
        }
        DegradeStep::Exhausted
    }

    /// Has this class converged?
    pub fn is_converged(&self, class: ClassId) -> bool {
        self.converged.contains(&class)
    }

    /// Number of converged classes.
    pub fn converged_count(&self) -> usize {
        self.converged.len()
    }

    /// Total drift re-activations performed across all classes.
    pub fn reactivations(&self) -> u64 {
        self.reactivated.values().map(|n| u64::from(*n)).sum()
    }

    /// Whether the ladder has degraded OALs to per-class summaries.
    pub fn summary_only(&self) -> bool {
        self.summary_only
    }

    /// Ladder rungs actually taken (excludes `Exhausted` no-ops).
    pub fn degrades(&self) -> u64 {
        self.degrades
    }
}

/// Execute the resampling walk for `class` after a rate change: every existing object
/// of the class re-derives its sampled tag from its sequence number under the new gap.
/// Returns the number of objects visited; their cost is charged to `clock`.
pub fn apply_rate_change(gos: &Gos, gaps: &GapTable, class: ClassId, clock: &ClockHandle) -> usize {
    let state = gaps.state(class);
    let mut visited = 0usize;
    gos.for_each_object_of_class(class, |core| {
        core.set_sampled(state.sampled_elems(core.elem_seq0, core.len_elems()) > 0);
        visited += 1;
    });
    clock.spend(gos.costs().resample_ns_per_obj * visited as u64);
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::PAGE_SIZE;
    use jessy_net::ThreadId;
    use proptest::prelude::*;

    fn round(class: ClassId, v: f64) -> HashMap<ClassId, SparseTcm> {
        let t = SparseTcm::from_pairs(2, &[(ThreadId(0), ThreadId(1), v)]);
        HashMap::from([(class, t)])
    }

    fn gaps_with(class: ClassId, unit: usize, rate: SamplingRate) -> GapTable {
        let g = GapTable::new(PAGE_SIZE);
        g.register_class(class, unit, rate);
        g
    }

    /// The controller for convergence threshold 0.05 with `edit` applied to the
    /// rest of its (validated) config.
    fn controller(edit: impl FnOnce(&mut ProfilerConfig)) -> AdaptiveController {
        let mut config = ProfilerConfig {
            adaptive_threshold: Some(0.05),
            ..ProfilerConfig::default()
        };
        edit(&mut config);
        config.validate().unwrap();
        AdaptiveController::new(&config).unwrap()
    }

    /// A fully covered, free round; returns the classes it stepped.
    fn applied(
        ctl: &mut AdaptiveController,
        r: &HashMap<ClassId, SparseTcm>,
        gaps: &GapTable,
    ) -> Vec<RateChange> {
        match ctl.on_round(r, gaps, 1.0, 0.0) {
            RoundOutcome::Applied(changes) => changes,
            other => panic!("expected an applied round, got {other:?}"),
        }
    }

    #[test]
    fn no_threshold_means_no_controller() {
        assert!(AdaptiveController::new(&ProfilerConfig::default()).is_none());
    }

    #[test]
    fn first_round_only_baselines() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = controller(|_| {});
        assert!(applied(&mut ctl, &round(class, 100.0), &gaps).is_empty());
        assert!(!ctl.is_converged(class));
    }

    #[test]
    fn unstable_rounds_step_rate_up_until_converged() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = controller(|_| {});
        applied(&mut ctl, &round(class, 100.0), &gaps);
        // 50% off → step up.
        let changes = applied(&mut ctl, &round(class, 150.0), &gaps);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].class, class);
        assert_eq!(changes[0].new_state.rate, SamplingRate::NX(2));
        assert!(changes[0].relative_distance > 0.05);
        // Within threshold → converge, no more changes ever.
        let changes = applied(&mut ctl, &round(class, 151.0), &gaps);
        assert!(changes.is_empty());
        assert!(ctl.is_converged(class));
        let changes = applied(&mut ctl, &round(class, 9999.0), &gaps);
        assert!(changes.is_empty(), "without drift watching, converged classes are frozen");
        assert_eq!(ctl.reactivations(), 0);
    }

    /// Drive `ctl` to convergence on `class` at value `v` (baseline + confirm round).
    fn converge_at(ctl: &mut AdaptiveController, class: ClassId, gaps: &GapTable, v: f64) {
        applied(ctl, &round(class, v), gaps);
        let changes = applied(ctl, &round(class, v), gaps);
        assert!(changes.is_empty());
        assert!(ctl.is_converged(class));
    }

    #[test]
    fn drift_reactivates_after_hysteresis() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = controller(|c| c.drift_threshold = Some(0.2));
        converge_at(&mut ctl, class, &gaps, 100.0);

        // First drifting round: streak 1 of 2 — still frozen.
        assert!(applied(&mut ctl, &round(class, 500.0), &gaps).is_empty());
        assert!(ctl.is_converged(class));
        // Second consecutive drifting round (vs the updated baseline 500): un-converge.
        let changes = applied(&mut ctl, &round(class, 900.0), &gaps);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].class, class);
        assert_eq!(changes[0].cause, RateCause::Drift);
        assert_eq!(changes[0].new_state.rate, SamplingRate::NX(2));
        assert!(!ctl.is_converged(class));
        assert_eq!(ctl.reactivations(), 1);

        // The normal refinement loop now owns the class again and re-converges it.
        let changes = applied(&mut ctl, &round(class, 905.0), &gaps);
        assert!(changes.is_empty());
        assert!(ctl.is_converged(class));
    }

    #[test]
    fn calm_round_resets_the_drift_streak() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = controller(|c| c.drift_threshold = Some(0.2));
        converge_at(&mut ctl, class, &gaps, 100.0);

        // Drift, calm, drift: the streak restarts, so no re-activation yet.
        assert!(applied(&mut ctl, &round(class, 500.0), &gaps).is_empty());
        assert!(applied(&mut ctl, &round(class, 501.0), &gaps).is_empty()); // calm
        assert!(applied(&mut ctl, &round(class, 900.0), &gaps).is_empty()); // streak 1 again
        assert!(ctl.is_converged(class));
        assert_eq!(ctl.reactivations(), 0);
    }

    #[test]
    fn reactivations_are_bounded_per_class() {
        let class = ClassId(0);
        // 8-byte units: gap 512 at 1X, still 2 after the eighth step up.
        let gaps = gaps_with(class, 8, SamplingRate::NX(1));
        let mut ctl = controller(|c| c.drift_threshold = Some(0.2));
        let mut v = 100.0;
        converge_at(&mut ctl, class, &gaps, v);

        // Each drift re-activates (within the bound), then re-converges.
        for n in 1..=MAX_DRIFT_REACTIVATIONS {
            v *= 2.0;
            assert!(applied(&mut ctl, &round(class, v), &gaps).is_empty()); // streak 1
            v *= 2.0;
            let changes = applied(&mut ctl, &round(class, v), &gaps);
            assert_eq!(changes.len(), 1);
            assert_eq!(changes[0].cause, RateCause::Drift);
            applied(&mut ctl, &round(class, v), &gaps);
            assert!(ctl.is_converged(class));
            assert_eq!(ctl.reactivations(), u64::from(n));
        }
        assert!(gaps.state(class).real_gap > 1, "the bound, not full sampling, stops it");
        // One more drift: bound exhausted — frozen-forever behaviour restored.
        for _ in 0..4 {
            v *= 2.0;
            assert!(applied(&mut ctl, &round(class, v), &gaps).is_empty());
        }
        assert!(ctl.is_converged(class));
        assert_eq!(ctl.reactivations(), u64::from(MAX_DRIFT_REACTIVATIONS));
    }

    #[test]
    fn full_sampling_classes_never_drift_reactivate() {
        let class = ClassId(0);
        // 16 KB units: gap 1 at 1X — the map is exact, drift is the workload itself.
        let gaps = gaps_with(class, 16384, SamplingRate::NX(1));
        let mut ctl = controller(|c| c.drift_threshold = Some(0.2));
        applied(&mut ctl, &round(class, 10.0), &gaps);
        applied(&mut ctl, &round(class, 20.0), &gaps); // converges by exhaustion
        assert!(ctl.is_converged(class));
        assert!(applied(&mut ctl, &round(class, 900.0), &gaps).is_empty());
        assert!(applied(&mut ctl, &round(class, 9000.0), &gaps).is_empty());
        assert!(ctl.is_converged(class));
        assert_eq!(ctl.reactivations(), 0);
    }

    #[test]
    fn low_coverage_rounds_do_not_advance_drift_streaks() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = controller(|c| {
            c.min_round_coverage = 0.9;
            c.drift_threshold = Some(0.2);
        });
        converge_at(&mut ctl, class, &gaps, 100.0);
        // Two lossy "drifting" rounds: skipped wholesale, streak stays at zero.
        for _ in 0..2 {
            assert!(matches!(
                ctl.on_round(&round(class, 900.0), &gaps, 0.5, 0.0),
                RoundOutcome::SkippedLowCoverage { .. }
            ));
        }
        assert!(ctl.is_converged(class));
        assert!(ctl.drift_streak.is_empty());
    }

    /// The controller after a `serde_json` round trip of itself.
    fn json_roundtrip(ctl: &AdaptiveController) -> AdaptiveController {
        let back: AdaptiveController =
            serde_json::from_str(&serde_json::to_string(ctl).unwrap()).unwrap();
        assert_eq!(&back, ctl, "serialize ∘ deserialize is the identity");
        back
    }

    #[test]
    fn checkpoint_roundtrips_drift_state_mid_phase_change() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut live = controller(|c| c.drift_threshold = Some(0.2));
        converge_at(&mut live, class, &gaps, 100.0);
        // One drifting round: streak 1, class still converged — the exact moment a
        // master crash mid-phase-change would snapshot.
        assert!(applied(&mut live, &round(class, 500.0), &gaps).is_empty());
        assert_eq!(live.drift_streak, BTreeMap::from([(class, 1)]));

        let mut restored = json_roundtrip(&live);
        // Both controllers see the second drifting round and un-converge in lockstep:
        // the restore did not resurrect stale convergence.
        let a = applied(&mut live, &round(class, 900.0), &gaps);
        let gaps2 = gaps_with(class, 64, SamplingRate::NX(1));
        let b = applied(&mut restored, &round(class, 900.0), &gaps2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].cause, RateCause::Drift);
        assert_eq!(restored.reactivations(), 1);
    }

    #[test]
    fn full_sampling_classes_converge_by_exhaustion() {
        let class = ClassId(0);
        // A 16 KB class: gap is 1 even at 1X — nothing to refine.
        let gaps = gaps_with(class, 16384, SamplingRate::NX(1));
        let mut ctl = controller(|c| c.adaptive_threshold = Some(0.01));
        applied(&mut ctl, &round(class, 10.0), &gaps);
        let changes = applied(&mut ctl, &round(class, 20.0), &gaps);
        assert!(changes.is_empty());
        assert!(ctl.is_converged(class));
    }

    #[test]
    fn low_coverage_rounds_neither_steer_nor_baseline() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = controller(|c| c.min_round_coverage = 0.9);
        // Clean baseline round.
        assert_eq!(
            ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.0),
            RoundOutcome::Applied(vec![])
        );
        // Lossy round: skipped, baseline untouched.
        match ctl.on_round(&round(class, 500.0), &gaps, 0.5, 0.0) {
            RoundOutcome::SkippedLowCoverage { coverage, min_coverage } => {
                assert_eq!(coverage, 0.5);
                assert_eq!(min_coverage, 0.9);
            }
            other => panic!("expected skip, got {other:?}"),
        }
        // The next trusted round compares against the clean baseline (100, not 500):
        // 1% off converges instead of stepping the rate on a phantom shift.
        assert_eq!(
            ctl.on_round(&round(class, 101.0), &gaps, 1.0, 0.0),
            RoundOutcome::Applied(vec![])
        );
        assert!(ctl.is_converged(class));
    }

    #[test]
    fn zero_floor_gates_nothing() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = controller(|_| {});
        // Even a zero-coverage round is applied when no floor is configured.
        assert!(matches!(
            ctl.on_round(&round(class, 100.0), &gaps, 0.0, 0.0),
            RoundOutcome::Applied(_)
        ));
    }

    #[test]
    fn checkpoint_restore_resumes_identical_decisions() {
        let c0 = ClassId(0);
        let c1 = ClassId(1);
        let gaps = gaps_with(c0, 64, SamplingRate::NX(1));
        gaps.register_class(c1, 64, SamplingRate::NX(1));
        let mk = |v0: f64, v1: f64| {
            HashMap::from([
                (c0, SparseTcm::from_pairs(2, &[(ThreadId(0), ThreadId(1), v0)])),
                (c1, SparseTcm::from_pairs(2, &[(ThreadId(0), ThreadId(1), v1)])),
            ])
        };
        let mut live = controller(|_| {});
        applied(&mut live, &mk(100.0, 50.0), &gaps);
        // c0 converges (1% off); c1 is 60% off -> steps to NX(2), stays live.
        applied(&mut live, &mk(101.0, 80.0), &gaps);

        assert_eq!(live.converged, BTreeSet::from([c0]));
        assert_eq!(live.prev_round.len(), 2);
        // Canonical: equal states serialize to equal bytes.
        assert_eq!(
            serde_json::to_string(&live).unwrap(),
            serde_json::to_string(&live.clone()).unwrap()
        );

        // The deserialized snapshot makes the same call on the next round as the
        // uninterrupted controller (c1 is 25% off baseline -> step). The gap table
        // mirrors the rate restore the master performs: c1 resumes at the NX(2) it
        // held at checkpoint time.
        let mut restored = json_roundtrip(&live);
        let gaps2 = gaps_with(c0, 64, SamplingRate::NX(1));
        gaps2.register_class(c1, 64, SamplingRate::NX(2));
        let a = applied(&mut live, &mk(101.0, 100.0), &gaps);
        let b = applied(&mut restored, &mk(101.0, 100.0), &gaps2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].class, c1);
    }

    // ------------------------------------------------------------ overhead budget

    fn budgeted(c: &mut ProfilerConfig) {
        c.overhead_budget = Some(0.02);
    }

    #[test]
    fn within_budget_behaves_like_the_accuracy_controller() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = controller(budgeted);
        // Cost fraction under the 2% budget: baseline, then a step-up.
        assert_eq!(
            ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.01),
            RoundOutcome::Applied(vec![])
        );
        match ctl.on_round(&round(class, 200.0), &gaps, 1.0, 0.01) {
            RoundOutcome::Applied(ch) => {
                assert_eq!(ch.len(), 1);
                assert_eq!(ch[0].new_state.rate, SamplingRate::NX(2));
            }
            other => panic!("expected a step-up, got {other:?}"),
        }
        assert_eq!(ctl.degrades(), 0);
    }

    #[test]
    fn over_budget_walks_the_ladder_in_order() {
        let c0 = ClassId(0);
        let c1 = ClassId(1);
        let gaps = gaps_with(c0, 64, SamplingRate::NX(4)); // gap 17 — finest
        gaps.register_class(c1, 64, SamplingRate::NX(2)); // gap 31
        let mut ctl = controller(budgeted);
        let r = round(c0, 100.0);
        // Every rung is followed by one settling round (the over-budget cost
        // right after a rung reflects the transition, not the new regime).
        let rung = |ctl: &mut AdaptiveController| {
            let out = ctl.on_round(&r, &gaps, 1.0, 0.10);
            assert_eq!(ctl.on_round(&r, &gaps, 1.0, 0.10), RoundOutcome::Settling);
            out
        };

        // Rung 1: coarsen the finest class (c0: 4X → 2X).
        match rung(&mut ctl) {
            RoundOutcome::Degraded(DegradeStep::CoarsenRate { class, new_state }) => {
                assert_eq!(class, c0);
                assert_eq!(new_state.rate, SamplingRate::NX(2));
            }
            other => panic!("{other:?}"),
        }
        // Both at 2X (gap 31): tie breaks to the lower class id.
        match rung(&mut ctl) {
            RoundOutcome::Degraded(DegradeStep::CoarsenRate { class, .. }) => {
                assert_eq!(class, c0)
            }
            other => panic!("{other:?}"),
        }
        // The last rate rung: c1 2X → 1X.
        match rung(&mut ctl) {
            RoundOutcome::Degraded(DegradeStep::CoarsenRate { class, new_state }) => {
                assert_eq!(class, c1);
                assert_eq!(new_state.rate, SamplingRate::NX(1));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(gaps.state(c0).rate, SamplingRate::NX(1));
        assert_eq!(gaps.state(c1).rate, SamplingRate::NX(1));
        // Next rungs: merge factor 2 → 4 → 8.
        for want in [2u32, 4, 8] {
            match rung(&mut ctl) {
                RoundOutcome::Degraded(DegradeStep::MergeRounds { factor }) => {
                    assert_eq!(factor, want)
                }
                other => panic!("{other:?}"),
            }
        }
        // Then summary-only, then the ladder is exhausted (no settling after
        // an Exhausted no-op — there is no transition to wash out).
        assert_eq!(rung(&mut ctl), RoundOutcome::Degraded(DegradeStep::SummaryOnly));
        assert!(ctl.summary_only());
        assert_eq!(
            ctl.on_round(&r, &gaps, 1.0, 0.10),
            RoundOutcome::Degraded(DegradeStep::Exhausted)
        );
        assert_eq!(
            ctl.on_round(&r, &gaps, 1.0, 0.10),
            RoundOutcome::Degraded(DegradeStep::Exhausted)
        );
        assert_eq!(ctl.rounds_seen, 16, "every round was over budget");
        assert_eq!(ctl.degrades(), 7, "Exhausted and settling rounds take no rung");
    }

    #[test]
    fn merge_factor_gates_the_accuracy_cadence() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1)); // nothing to coarsen
        let mut ctl = controller(budgeted);
        assert_eq!(
            ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.10),
            RoundOutcome::Degraded(DegradeStep::MergeRounds { factor: 2 })
        );
        // rounds_seen = 1. Round 2 is the act point (2 % 2 == 0); round 3 merges out.
        assert!(matches!(
            ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.01),
            RoundOutcome::Applied(_)
        ));
        assert_eq!(
            ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.01),
            RoundOutcome::MergedOut { factor: 2 }
        );
        assert!(matches!(
            ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.01),
            RoundOutcome::Applied(_)
        ));
    }

    #[test]
    fn degraded_rounds_leave_baselines_untouched() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(2));
        let mut ctl = controller(budgeted);
        ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.01); // baseline 100
        ctl.on_round(&round(class, 500.0), &gaps, 1.0, 0.50); // over budget: coarsen
        // Next trusted round compares against 100, not 500: 1% off → converge.
        match ctl.on_round(&round(class, 101.0), &gaps, 1.0, 0.01) {
            RoundOutcome::Applied(ch) => assert!(ch.is_empty()),
            other => panic!("{other:?}"),
        }
        assert!(ctl.is_converged(class));
    }

    #[test]
    fn checkpoint_restore_preserves_the_ladder_position() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = controller(budgeted);
        ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.10); // merge 2
        ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.10); // settling
        ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.10); // merge 4
        assert_eq!(ctl.merge_factor, 4);
        assert_eq!(ctl.rounds_seen, 3);
        assert_eq!(ctl.cooldown, 1);
        assert_eq!(ctl.degrades, 2);
        // The mid-settle ladder position and the rungs taken survive the round trip.
        let mut restored = json_roundtrip(&ctl);
        // Both controllers settle, then take the same next rung.
        for want in [
            RoundOutcome::Settling,
            RoundOutcome::Degraded(DegradeStep::MergeRounds { factor: 8 }),
        ] {
            let a = ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.10);
            let b = restored.on_round(&round(class, 100.0), &gaps, 1.0, 0.10);
            assert_eq!(a, b);
            assert_eq!(a, want);
        }
        assert_eq!(restored.degrades(), 3);
    }

    #[test]
    fn budget_rung_wins_over_drift_reactivation() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(2));
        let mut ctl = controller(|c| {
            budgeted(c);
            c.drift_threshold = Some(0.2);
        });
        // Converge within budget.
        ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.01);
        ctl.on_round(&round(class, 101.0), &gaps, 1.0, 0.01);
        assert!(ctl.is_converged(class));

        // A drifting map on an over-budget round: the ladder rung is taken, the
        // accuracy loop is never consulted — no re-activation, no streak, and
        // the class is *coarsened* (the budget's call), not refined (drift's).
        match ctl.on_round(&round(class, 900.0), &gaps, 1.0, 0.50) {
            RoundOutcome::Degraded(DegradeStep::CoarsenRate { class: c, new_state }) => {
                assert_eq!(c, class);
                assert_eq!(new_state.rate, SamplingRate::NX(1));
            }
            other => panic!("expected the budget rung, got {other:?}"),
        }
        assert!(ctl.is_converged(class), "budget round never reaches drift detection");
        assert_eq!(ctl.reactivations(), 0);
        assert!(ctl.drift_streak.is_empty());

        // Once back within budget, drift detection runs against the still-clean
        // baseline (100) and re-activates after the hysteresis.
        assert_eq!(
            ctl.on_round(&round(class, 900.0), &gaps, 1.0, 0.01),
            RoundOutcome::Applied(vec![])
        );
        assert_eq!(ctl.drift_streak, BTreeMap::from([(class, 1)]));
        match ctl.on_round(&round(class, 5000.0), &gaps, 1.0, 0.01) {
            RoundOutcome::Applied(ch) => {
                assert_eq!(ch.len(), 1);
                assert_eq!(ch[0].cause, RateCause::Drift);
            }
            other => panic!("expected drift re-activation, got {other:?}"),
        }
        assert!(!ctl.is_converged(class));
        assert_eq!(ctl.reactivations(), 1);
    }

    #[test]
    fn merged_out_rounds_do_not_advance_drift_streaks() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1)); // nothing to coarsen
        let mut ctl = controller(|c| {
            budgeted(c);
            c.drift_threshold = Some(0.2);
        });
        ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.10); // merge 2 (rounds_seen 1)
        ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.01); // act: baseline (2)
        ctl.on_round(&round(class, 100.0), &gaps, 1.0, 0.01); // merged out (3)
        ctl.on_round(&round(class, 101.0), &gaps, 1.0, 0.01); // act: converge (4)
        assert!(ctl.is_converged(class));
        // Drifting maps on merged-out rounds are never seen by the accuracy
        // loop: streaks only advance on act points.
        ctl.on_round(&round(class, 900.0), &gaps, 1.0, 0.01); // merged out (5)
        assert!(ctl.drift_streak.is_empty());
        ctl.on_round(&round(class, 900.0), &gaps, 1.0, 0.01); // act: streak 1 (6)
        assert_eq!(ctl.drift_streak, BTreeMap::from([(class, 1)]));
        assert!(ctl.is_converged(class));
    }

    #[test]
    fn step_labels_are_stable() {
        let gaps = gaps_with(ClassId(3), 64, SamplingRate::NX(2));
        let st = gaps.state(ClassId(3));
        let s = DegradeStep::CoarsenRate { class: ClassId(3), new_state: st };
        assert_eq!(s.label(), "coarsen:c3:2X");
        assert_eq!(DegradeStep::MergeRounds { factor: 4 }.label(), "merge_rounds:4");
        assert_eq!(DegradeStep::SummaryOnly.label(), "summary_only");
        assert_eq!(DegradeStep::Exhausted.label(), "exhausted");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A budget that is never exceeded is invisible: with cost fractions in
        /// `[0, 1]` a 100% budget gives the same outcomes, gap-table states and
        /// accuracy and drift state as no budget at all, for any round sequence
        /// and coverage pattern, with drift watching on or off.
        #[test]
        fn a_budget_never_exceeded_is_invisible(
            values in prop::collection::vec((0.0f64..1000.0, 0.0f64..1.0, 0.0f64..1.1), 1..24),
            min_cov in 0.0f64..1.0,
            drift_on in 0u8..2,
            drift_threshold in 0.05f64..1.0,
        ) {
            let class = ClassId(0);
            let drift = (drift_on == 1).then_some(drift_threshold);
            let gaps_a = gaps_with(class, 64, SamplingRate::NX(1));
            let gaps_b = gaps_with(class, 64, SamplingRate::NX(1));
            let edit = |budget| move |c: &mut ProfilerConfig| {
                c.min_round_coverage = min_cov;
                c.drift_threshold = drift;
                c.overhead_budget = budget;
            };
            let mut budgeted = controller(edit(Some(1.0)));
            let mut bare = controller(edit(None));
            for (v, cov, cost) in values {
                let cost = cost.min(1.0); // the budget itself, about one round in ten
                let r = round(class, v);
                let a = budgeted.on_round(&r, &gaps_a, cov, cost);
                let b = bare.on_round(&r, &gaps_b, cov, cost);
                prop_assert_eq!(a, b);
                prop_assert_eq!(gaps_a.state(class), gaps_b.state(class));
            }
            prop_assert_eq!(&budgeted.prev_round, &bare.prev_round);
            prop_assert_eq!(&budgeted.converged, &bare.converged);
            prop_assert_eq!(&budgeted.drift_streak, &bare.drift_streak);
            prop_assert_eq!(&budgeted.reactivated, &bare.reactivated);
            prop_assert_eq!(budgeted.merge_factor, 1);
            prop_assert!(!budgeted.summary_only);
            prop_assert_eq!(budgeted.degrades, 0);
        }
    }

    #[test]
    fn apply_rate_change_retags_objects() {
        use jessy_gos::{CostModel, GosConfig};
        use jessy_net::{ClockBoard, LatencyModel, NodeId};

        let gos = Gos::new(GosConfig {
            n_nodes: 1,
            n_threads: 4,
            latency: LatencyModel::free(),
            costs: CostModel::pentium4_2ghz(),
            prefetch_depth: 0,
            consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        let clock = ClockBoard::new(1).handle(ThreadId(0));
        let class = gos.classes().register_scalar("Body", 8); // 64 B
        let gaps = GapTable::new(PAGE_SIZE);
        gaps.register_class(class, 64, SamplingRate::NX(1)); // gap 67

        let mut objs = Vec::new();
        for _ in 0..200 {
            objs.push(gos.alloc_scalar(NodeId(0), class, &clock, None));
        }
        // Initial tagging at allocation time (what the runtime does).
        for o in &objs {
            o.set_sampled(gaps.decide_sampled(class, o.elem_seq0, 1));
        }
        let before: usize = objs.iter().filter(|o| o.is_sampled()).count();
        assert_eq!(before, 3, "seq 0, 67, 134 under gap 67");

        gaps.set_rate(class, SamplingRate::NX(4)); // gap 17
        let t0 = clock.now();
        let visited = apply_rate_change(&gos, &gaps, class, &clock);
        assert_eq!(visited, 200);
        assert!(clock.now() > t0, "walk cost charged");
        let after: usize = objs.iter().filter(|o| o.is_sampled()).count();
        assert_eq!(after, 200usize.div_ceil(17), "multiples of 17 in [0,200)");
    }
}
