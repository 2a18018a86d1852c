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
//! ## Drift re-activation
//!
//! The paper's workloads (Table I) have *stable* sharing patterns, so "converged ⇒
//! frozen forever" is safe there. Under a workload phase change it is not: a frozen
//! class keeps reporting the pre-shift correlation picture and every downstream
//! consumer (the placement engine above all) plans against stale data. With a
//! [`DriftConfig`] the controller keeps watching converged classes: a post-convergence
//! relative `E_ABS` spike above `DriftConfig::threshold` sustained for
//! `DriftConfig::hysteresis_rounds` consecutive trusted rounds **un-converges** the
//! class and steps it one rate finer (cause [`RateCause::Drift`]), after which the
//! normal refinement loop re-converges it at whatever rate the new phase needs. The
//! drift threshold must sit at or above the convergence threshold, so the two bands
//! cannot chatter; re-activations are bounded per class
//! (`DriftConfig::max_reactivations`) so a pathologically unstable class degrades to
//! the frozen behaviour instead of thrashing rates forever. All drift state rides
//! [`ControllerCheckpoint`], so a master restored mid-phase-change resumes the
//! re-convergence exactly where the crashed one left off. Without a `DriftConfig`
//! the controller is bit-identical to the frozen-forever behaviour.

use std::collections::{HashMap, HashSet};

use jessy_gos::{ClassId, Gos};
use jessy_net::ClockHandle;
use serde::{Deserialize, Serialize};

use crate::accuracy::e_abs_sparse;
use crate::sampling::{ClassGapState, GapTable};
use crate::tcm::SparseTcm;

/// Serializable snapshot of an [`AdaptiveController`]'s mutable state: the per-class
/// baseline round maps, the converged set and the drift bookkeeping, all as
/// **sorted** vectors so the encoding is canonical (two equal controllers serialize
/// to identical bytes). The drift vectors only carry nonzero entries, keeping the
/// canonical form unique (a drift-free controller checkpoints two empty vectors).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerCheckpoint {
    /// Per-class previous-round baselines, sorted by class id.
    pub prev_round: Vec<(ClassId, SparseTcm)>,
    /// Classes frozen at their current rate, sorted.
    pub converged: Vec<ClassId>,
    /// Consecutive over-drift-threshold rounds per converged class (only nonzero
    /// streaks, sorted by class id).
    pub drift_streaks: Vec<(ClassId, u32)>,
    /// Drift re-activations performed per class (only nonzero counts, sorted by
    /// class id) — the bound `DriftConfig::max_reactivations` is enforced against
    /// these, so a restore cannot reset a class's re-activation budget.
    pub reactivations: Vec<(ClassId, u32)>,
}

/// Post-convergence drift watching (see the module docs). Constructed via
/// [`DriftConfig::new`], which fills in the defaults the runtime exposes through
/// `ProfilerConfig`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Relative `E_ABS` distance above which a converged class counts as drifting.
    /// Must be at least the convergence threshold — the gap between the two is the
    /// hysteresis band that keeps converge/un-converge from chattering.
    pub threshold: f64,
    /// Consecutive trusted drifting rounds required before a class un-converges
    /// (≥ 1). Skipped low-coverage rounds never advance a streak.
    pub hysteresis_rounds: u32,
    /// Upper bound on re-activations per class (≥ 1); past it the class stays
    /// frozen, restoring the pre-drift behaviour for pathologically unstable
    /// classes.
    pub max_reactivations: u32,
}

impl DriftConfig {
    /// Drift watching at `threshold` with the default hysteresis (2 rounds) and
    /// per-class re-activation bound (8).
    pub fn new(threshold: f64) -> Self {
        DriftConfig {
            threshold,
            hysteresis_rounds: 2,
            max_reactivations: 8,
        }
    }
}

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

/// What the controller did with one round, given its OAL coverage.
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
}

/// Stepwise per-class rate refinement driven by relative accuracy.
#[derive(Debug)]
pub struct AdaptiveController {
    threshold: f64,
    min_coverage: f64,
    drift: Option<DriftConfig>,
    prev_round: HashMap<ClassId, SparseTcm>,
    converged: HashSet<ClassId>,
    /// Consecutive drifting rounds per converged class; entries are always ≥ 1
    /// (a streak that resets is removed), keeping checkpoints canonical.
    drift_streak: HashMap<ClassId, u32>,
    /// Drift re-activations performed per class; entries are always ≥ 1.
    reactivated: HashMap<ClassId, u32>,
}

impl AdaptiveController {
    /// Controller converging when the relative `E_ABS` distance between successive
    /// rounds drops to `threshold` or below.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold > 0.0, "threshold must be positive");
        AdaptiveController {
            threshold,
            min_coverage: 0.0,
            drift: None,
            prev_round: HashMap::new(),
            converged: HashSet::new(),
            drift_streak: HashMap::new(),
            reactivated: HashMap::new(),
        }
    }

    /// Require at least this OAL coverage before a round may steer rates (see
    /// [`AdaptiveController::on_round_with_coverage`]). Probabilities outside
    /// `[0, 1]` are clamped.
    pub fn with_min_coverage(mut self, min_coverage: f64) -> Self {
        self.min_coverage = min_coverage.clamp(0.0, 1.0);
        self
    }

    /// Watch converged classes for drift (see the module docs). Without this the
    /// controller keeps the historical frozen-forever behaviour, bit for bit.
    ///
    /// # Panics
    /// If the drift threshold sits below the convergence threshold (the bands
    /// would chatter), or hysteresis/re-activation bounds are zero.
    pub fn with_drift(mut self, drift: DriftConfig) -> Self {
        assert!(
            drift.threshold.is_finite() && drift.threshold >= self.threshold,
            "drift threshold must be finite and at least the convergence threshold"
        );
        assert!(drift.hysteresis_rounds >= 1, "hysteresis needs at least one round");
        assert!(drift.max_reactivations >= 1, "the re-activation bound must be positive");
        self.drift = Some(drift);
        self
    }

    /// The drift configuration in force, if any.
    pub fn drift(&self) -> Option<DriftConfig> {
        self.drift
    }

    /// The coverage floor in force.
    pub fn min_coverage(&self) -> f64 {
        self.min_coverage
    }

    /// Feed one round's per-class maps; returns the classes to step finer.
    ///
    /// The first round for a class only records a baseline (there is nothing to
    /// compare against yet). A class at full sampling can never be refined further and
    /// is marked converged.
    pub fn on_round(
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
                if let Some(drift) = self.drift {
                    if let Some(change) = self.watch_drift(*class, cur, gaps, drift) {
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
        drift: DriftConfig,
    ) -> Option<RateChange> {
        let prev = self.prev_round.get(&class)?;
        let d = e_abs_sparse(cur, prev);
        if d <= drift.threshold {
            self.drift_streak.remove(&class);
            return None;
        }
        let streak = self.drift_streak.entry(class).or_insert(0);
        *streak += 1;
        if *streak < drift.hysteresis_rounds {
            return None;
        }
        self.drift_streak.remove(&class);
        // A class at full sampling already reports the exact map — its "drift" is
        // the workload itself, not a sampling artifact; nothing finer exists.
        if gaps.state(class).real_gap <= 1 {
            return None;
        }
        let seen = self.reactivated.entry(class).or_insert(0);
        if *seen >= drift.max_reactivations {
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

    /// Gate [`AdaptiveController::on_round`] on the round's OAL coverage: a round
    /// below the floor is skipped wholesale — baselines are not updated, no class
    /// converges or steps — so the controller only ever reasons about rounds it can
    /// trust. Under heavy loss the profiler thus degrades to a fixed-rate profiler
    /// instead of thrashing rates on phantom workload shifts.
    pub fn on_round_with_coverage(
        &mut self,
        round_per_class: &HashMap<ClassId, SparseTcm>,
        gaps: &GapTable,
        coverage: f64,
    ) -> RoundOutcome {
        if coverage < self.min_coverage {
            return RoundOutcome::SkippedLowCoverage {
                coverage,
                min_coverage: self.min_coverage,
            };
        }
        RoundOutcome::Applied(self.on_round(round_per_class, gaps))
    }

    /// Snapshot the controller's mutable state in canonical (sorted) form.
    pub fn checkpoint(&self) -> ControllerCheckpoint {
        let mut prev_round: Vec<(ClassId, SparseTcm)> =
            self.prev_round.iter().map(|(c, t)| (*c, t.clone())).collect();
        prev_round.sort_unstable_by_key(|(c, _)| *c);
        let mut converged: Vec<ClassId> = self.converged.iter().copied().collect();
        converged.sort_unstable();
        let mut drift_streaks: Vec<(ClassId, u32)> =
            self.drift_streak.iter().map(|(c, s)| (*c, *s)).collect();
        drift_streaks.sort_unstable_by_key(|(c, _)| *c);
        let mut reactivations: Vec<(ClassId, u32)> =
            self.reactivated.iter().map(|(c, n)| (*c, *n)).collect();
        reactivations.sort_unstable_by_key(|(c, _)| *c);
        ControllerCheckpoint {
            prev_round,
            converged,
            drift_streaks,
            reactivations,
        }
    }

    /// Overwrite the controller's mutable state from a checkpoint. Threshold,
    /// coverage floor and drift configuration are configuration, not state — they
    /// come from the (immutable) profiler config, so a restored controller keeps
    /// its own.
    pub fn restore(&mut self, cp: &ControllerCheckpoint) {
        self.prev_round = cp.prev_round.iter().cloned().collect();
        self.converged = cp.converged.iter().copied().collect();
        self.drift_streak = cp.drift_streaks.iter().copied().collect();
        self.reactivated = cp.reactivations.iter().copied().collect();
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
    use crate::sampling::SamplingRate;
    use jessy_net::ThreadId;

    fn round(class: ClassId, v: f64) -> HashMap<ClassId, SparseTcm> {
        let t = SparseTcm::from_pairs(2, &[(ThreadId(0), ThreadId(1), v)]);
        HashMap::from([(class, t)])
    }

    fn gaps_with(class: ClassId, unit: usize, rate: SamplingRate) -> GapTable {
        let g = GapTable::new(4096);
        g.register_class(class, unit, rate);
        g
    }

    #[test]
    fn first_round_only_baselines() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = AdaptiveController::new(0.05);
        assert!(ctl.on_round(&round(class, 100.0), &gaps).is_empty());
        assert!(!ctl.is_converged(class));
    }

    #[test]
    fn unstable_rounds_step_rate_up_until_converged() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = AdaptiveController::new(0.05);
        ctl.on_round(&round(class, 100.0), &gaps);
        // 50% off → step up.
        let changes = ctl.on_round(&round(class, 150.0), &gaps);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].class, class);
        assert_eq!(changes[0].new_state.rate, SamplingRate::NX(2));
        assert!(changes[0].relative_distance > 0.05);
        // Within threshold → converge, no more changes ever.
        let changes = ctl.on_round(&round(class, 151.0), &gaps);
        assert!(changes.is_empty());
        assert!(ctl.is_converged(class));
        let changes = ctl.on_round(&round(class, 9999.0), &gaps);
        assert!(changes.is_empty(), "without drift config, converged classes are frozen");
        assert_eq!(ctl.reactivations(), 0);
    }

    /// Drive `ctl` to convergence on `class` at value `v` (baseline + confirm round).
    fn converge_at(ctl: &mut AdaptiveController, class: ClassId, gaps: &GapTable, v: f64) {
        ctl.on_round(&round(class, v), gaps);
        let changes = ctl.on_round(&round(class, v), gaps);
        assert!(changes.is_empty());
        assert!(ctl.is_converged(class));
    }

    #[test]
    fn drift_reactivates_after_hysteresis() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = AdaptiveController::new(0.05).with_drift(DriftConfig::new(0.2));
        converge_at(&mut ctl, class, &gaps, 100.0);

        // First drifting round: streak 1 of 2 — still frozen.
        assert!(ctl.on_round(&round(class, 500.0), &gaps).is_empty());
        assert!(ctl.is_converged(class));
        // Second consecutive drifting round (vs the updated baseline 500): un-converge.
        let changes = ctl.on_round(&round(class, 900.0), &gaps);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].class, class);
        assert_eq!(changes[0].cause, RateCause::Drift);
        assert_eq!(changes[0].new_state.rate, SamplingRate::NX(2));
        assert!(!ctl.is_converged(class));
        assert_eq!(ctl.reactivations(), 1);

        // The normal refinement loop now owns the class again and re-converges it.
        let changes = ctl.on_round(&round(class, 905.0), &gaps);
        assert!(changes.is_empty());
        assert!(ctl.is_converged(class));
    }

    #[test]
    fn calm_round_resets_the_drift_streak() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = AdaptiveController::new(0.05).with_drift(DriftConfig::new(0.2));
        converge_at(&mut ctl, class, &gaps, 100.0);

        // Drift, calm, drift: the streak restarts, so no re-activation yet.
        assert!(ctl.on_round(&round(class, 500.0), &gaps).is_empty());
        assert!(ctl.on_round(&round(class, 501.0), &gaps).is_empty()); // calm
        assert!(ctl.on_round(&round(class, 900.0), &gaps).is_empty()); // streak 1 again
        assert!(ctl.is_converged(class));
        assert_eq!(ctl.reactivations(), 0);
    }

    #[test]
    fn reactivations_are_bounded_per_class() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = AdaptiveController::new(0.05).with_drift(DriftConfig {
            threshold: 0.2,
            hysteresis_rounds: 1,
            max_reactivations: 1,
        });
        converge_at(&mut ctl, class, &gaps, 100.0);

        // First drift: re-activates (budget 1 of 1), then re-converges.
        let changes = ctl.on_round(&round(class, 500.0), &gaps);
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].cause, RateCause::Drift);
        ctl.on_round(&round(class, 502.0), &gaps);
        assert!(ctl.is_converged(class));
        // Second drift: budget exhausted — frozen-forever behaviour restored.
        assert!(ctl.on_round(&round(class, 5000.0), &gaps).is_empty());
        assert!(ctl.on_round(&round(class, 9000.0), &gaps).is_empty());
        assert!(ctl.is_converged(class));
        assert_eq!(ctl.reactivations(), 1);
    }

    #[test]
    fn full_sampling_classes_never_drift_reactivate() {
        let class = ClassId(0);
        // 16 KB units: gap 1 at 1X — the map is exact, drift is the workload itself.
        let gaps = gaps_with(class, 16384, SamplingRate::NX(1));
        let mut ctl = AdaptiveController::new(0.05).with_drift(DriftConfig {
            threshold: 0.2,
            hysteresis_rounds: 1,
            max_reactivations: 8,
        });
        ctl.on_round(&round(class, 10.0), &gaps);
        ctl.on_round(&round(class, 20.0), &gaps); // converges by exhaustion
        assert!(ctl.is_converged(class));
        assert!(ctl.on_round(&round(class, 900.0), &gaps).is_empty());
        assert!(ctl.is_converged(class));
        assert_eq!(ctl.reactivations(), 0);
    }

    #[test]
    fn low_coverage_rounds_do_not_advance_drift_streaks() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = AdaptiveController::new(0.05)
            .with_min_coverage(0.9)
            .with_drift(DriftConfig::new(0.2));
        assert!(matches!(
            ctl.on_round_with_coverage(&round(class, 100.0), &gaps, 1.0),
            RoundOutcome::Applied(_)
        ));
        assert!(matches!(
            ctl.on_round_with_coverage(&round(class, 100.0), &gaps, 1.0),
            RoundOutcome::Applied(_)
        ));
        assert!(ctl.is_converged(class));
        // Two lossy "drifting" rounds: skipped wholesale, streak stays at zero.
        for _ in 0..2 {
            assert!(matches!(
                ctl.on_round_with_coverage(&round(class, 900.0), &gaps, 0.5),
                RoundOutcome::SkippedLowCoverage { .. }
            ));
        }
        assert!(ctl.is_converged(class));
        assert_eq!(ctl.checkpoint().drift_streaks, vec![]);
    }

    #[test]
    fn checkpoint_roundtrips_drift_state_mid_phase_change() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let drift = DriftConfig::new(0.2); // hysteresis 2
        let mut live = AdaptiveController::new(0.05).with_drift(drift);
        converge_at(&mut live, class, &gaps, 100.0);
        // One drifting round: streak 1, class still converged — the exact moment a
        // master crash mid-phase-change would snapshot.
        assert!(live.on_round(&round(class, 500.0), &gaps).is_empty());

        let cp = live.checkpoint();
        assert_eq!(cp.drift_streaks, vec![(class, 1)]);
        let json = serde_json::to_string(&cp).unwrap();
        let back: ControllerCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(cp, back);

        let mut restored = AdaptiveController::new(0.05).with_drift(drift);
        restored.restore(&back);
        // Both controllers see the second drifting round and un-converge in lockstep:
        // the restore did not resurrect stale convergence.
        let a = live.on_round(&round(class, 900.0), &gaps);
        let gaps2 = gaps_with(class, 64, SamplingRate::NX(1));
        let b = restored.on_round(&round(class, 900.0), &gaps2);
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
        let mut ctl = AdaptiveController::new(0.01);
        ctl.on_round(&round(class, 10.0), &gaps);
        let changes = ctl.on_round(&round(class, 20.0), &gaps);
        assert!(changes.is_empty());
        assert!(ctl.is_converged(class));
    }

    #[test]
    fn low_coverage_rounds_neither_steer_nor_baseline() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = AdaptiveController::new(0.05).with_min_coverage(0.9);
        // Clean baseline round.
        assert_eq!(
            ctl.on_round_with_coverage(&round(class, 100.0), &gaps, 1.0),
            RoundOutcome::Applied(vec![])
        );
        // Lossy round: skipped, baseline untouched.
        match ctl.on_round_with_coverage(&round(class, 500.0), &gaps, 0.5) {
            RoundOutcome::SkippedLowCoverage { coverage, min_coverage } => {
                assert_eq!(coverage, 0.5);
                assert_eq!(min_coverage, 0.9);
            }
            other => panic!("expected skip, got {other:?}"),
        }
        // The next trusted round compares against the clean baseline (100, not 500):
        // 1% off converges instead of stepping the rate on a phantom shift.
        assert_eq!(
            ctl.on_round_with_coverage(&round(class, 101.0), &gaps, 1.0),
            RoundOutcome::Applied(vec![])
        );
        assert!(ctl.is_converged(class));
    }

    #[test]
    fn zero_floor_gates_nothing() {
        let class = ClassId(0);
        let gaps = gaps_with(class, 64, SamplingRate::NX(1));
        let mut ctl = AdaptiveController::new(0.05);
        assert_eq!(ctl.min_coverage(), 0.0);
        // Even a zero-coverage round is applied when no floor is configured.
        assert!(matches!(
            ctl.on_round_with_coverage(&round(class, 100.0), &gaps, 0.0),
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
        let mut live = AdaptiveController::new(0.05);
        live.on_round(&mk(100.0, 50.0), &gaps);
        // c0 converges (1% off); c1 is 60% off -> steps to NX(2), stays live.
        live.on_round(&mk(101.0, 80.0), &gaps);

        let cp = live.checkpoint();
        assert_eq!(cp.converged, vec![c0]);
        assert_eq!(cp.prev_round.len(), 2);
        // Canonical: a second snapshot of the same state is equal.
        assert_eq!(cp, live.checkpoint());

        // A fresh controller restored from the checkpoint makes the same call on the
        // next round as the uninterrupted one (c1 is 25% off baseline -> step). The
        // gap table mirrors the rate restore the master performs: c1 resumes at the
        // NX(2) it held at checkpoint time.
        let mut restored = AdaptiveController::new(0.05);
        restored.restore(&cp);
        let gaps2 = gaps_with(c0, 64, SamplingRate::NX(1));
        gaps2.register_class(c1, 64, SamplingRate::NX(2));
        let a = live.on_round(&mk(101.0, 100.0), &gaps);
        let b = restored.on_round(&mk(101.0, 100.0), &gaps2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].class, c1);
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
        let gaps = GapTable::new(4096);
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
